"""The `python -m repro.bench` CLI and repository-wide quality gates."""

import importlib
import pkgutil

import pytest

import repro
from repro.bench.__main__ import EXPERIMENTS, main


class TestBenchCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_single_experiment(self, capsys):
        assert main(["fig-5.6"]) == 0
        out = capsys.readouterr().out
        assert "Fig 5.6" in out
        assert "Fig 6.2" not in out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--tolerance", "-5", "--check", "benchmarks/baseline.json"],
             "--tolerance"),
            (["--tolerance", "nan"], "--tolerance"),
            (["--check", "{missing}"], "--check"),
            (["--check", "{not_json}"], "--check"),
        ],
    )
    def test_bad_flag_is_a_usage_error_naming_it(
        self, argv, flag, tmp_path, capsys
    ):
        not_json = tmp_path / "not.json"
        not_json.write_text("{")
        argv = [
            a.format(missing=tmp_path / "missing.json", not_json=not_json)
            for a in argv
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err

    def test_unknown_experiment(self, capsys):
        assert main(["fig-9.9"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err

    def test_every_registered_experiment_runs(self, capsys):
        # Skip the slow measured sweep (covered by its benchmark); run
        # the cheap ones end-to-end through the CLI.
        for name in ("fig-1.1", "fig-5.5", "fig-5.6", "fig-6.4"):
            assert main([name]) == 0
        assert capsys.readouterr().out.count("==") >= 8


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


class TestDocumentationGates:
    def test_every_module_has_a_docstring(self):
        undocumented = []
        for name in _walk_modules():
            mod = importlib.import_module(name)
            if not (mod.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, f"missing module docstrings: {undocumented}"

    def test_every_public_class_and_function_documented(self):
        import inspect

        missing = []
        for name in _walk_modules():
            mod = importlib.import_module(name)
            for attr_name, attr in vars(mod).items():
                if attr_name.startswith("_"):
                    continue
                if getattr(attr, "__module__", None) != name:
                    continue  # re-export; documented at home
                if inspect.isclass(attr) or inspect.isfunction(attr):
                    if not (inspect.getdoc(attr) or "").strip():
                        missing.append(f"{name}.{attr_name}")
        assert not missing, f"missing docstrings: {missing}"

    def test_markdown_deliverables_exist(self):
        from pathlib import Path

        root = Path(repro.__file__).resolve().parents[2]
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER_MAP.md"):
            path = root / doc
            assert path.exists(), f"{doc} missing"
            assert path.stat().st_size > 1000, f"{doc} looks empty"
