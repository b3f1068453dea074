"""OpenSteerDemo: clock, annotation, plugin registry, main loop."""

import pytest

from repro.steer.demo import (
    Annotation,
    Clock,
    DemoError,
    OpenSteerDemo,
    PlugIn,
)
from repro.steer.plugins import BoidsPlugIn, PursuitPlugIn


class RecordingPlugIn(PlugIn):
    name = "recorder"

    def __init__(self):
        self.calls = []

    def open(self, annotation):
        self.calls.append("open")

    def simulation_substage(self, dt):
        self.calls.append(("sim", dt))

    def modification_substage(self, dt):
        self.calls.append(("mod", dt))

    def redraw(self, annotation):
        self.calls.append("draw")
        annotation.text((0, 0, 0), "frame")

    def close(self):
        self.calls.append("close")


class TestClock:
    def test_fixed_timestep(self):
        c = Clock(dt=0.5)
        assert c.tick() == 0.5
        assert c.tick() == 0.5
        assert c.elapsed == 1.0
        assert c.step_count == 2

    def test_pause_freezes_simulation_time(self):
        c = Clock()
        c.toggle_pause()
        assert c.tick() == 0.0
        assert c.step_count == 0
        c.toggle_pause()
        assert c.tick() > 0


class TestAnnotation:
    def test_frames_accumulate(self):
        a = Annotation()
        a.line((0, 0, 0), (1, 0, 0))
        a.circle((0, 0, 0), 2.0, "red")
        a.end_frame()
        a.text((0, 0, 0), "hi")
        a.end_frame()
        assert len(a.frames) == 2
        assert [i.kind for i in a.frames[0]] == ["line", "circle"]
        assert a.last_frame[0].kind == "text"


class TestRegistry:
    def test_select_opens_plugin(self):
        demo = OpenSteerDemo()
        p = RecordingPlugIn()
        demo.register(p)
        demo.select("recorder")
        assert p.calls == ["open"]

    def test_duplicate_name_rejected(self):
        demo = OpenSteerDemo()
        demo.register(RecordingPlugIn())
        with pytest.raises(DemoError, match="already"):
            demo.register(RecordingPlugIn())

    def test_unknown_plugin(self):
        with pytest.raises(DemoError, match="no plugin"):
            OpenSteerDemo().select("nope")

    def test_no_active_plugin(self):
        with pytest.raises(DemoError, match="selected"):
            OpenSteerDemo().run_frame()

    def test_switching_closes_previous(self):
        demo = OpenSteerDemo()
        a, b = RecordingPlugIn(), RecordingPlugIn()
        b.name = "other"
        demo.register(a)
        demo.register(b)
        demo.select("recorder")
        demo.select("other")
        assert "close" in a.calls


class TestMainLoop:
    def test_stage_order_per_frame(self):
        # Fig 5.4: simulation substage -> modification substage -> draw.
        demo = OpenSteerDemo()
        p = RecordingPlugIn()
        demo.register(p)
        demo.select("recorder")
        demo.run(2)
        stages = [c[0] if isinstance(c, tuple) else c for c in p.calls[1:]]
        assert stages == ["sim", "mod", "draw", "sim", "mod", "draw"]

    def test_paused_clock_still_draws(self):
        demo = OpenSteerDemo()
        p = RecordingPlugIn()
        demo.register(p)
        demo.select("recorder")
        demo.clock.toggle_pause()
        demo.run(3)
        stages = [c for c in p.calls[1:]]
        assert stages == ["draw", "draw", "draw"]

    def test_annotations_recorded_per_frame(self):
        demo = OpenSteerDemo()
        demo.register(RecordingPlugIn())
        demo.select("recorder")
        demo.run(4)
        assert len(demo.annotation.frames) == 4


class TestBuiltinPlugins:
    def test_boids_plugin_runs(self):
        demo = OpenSteerDemo()
        demo.register(BoidsPlugIn(n=32, seed=1))
        demo.select("Boids")
        demo.run(3)
        plugin = demo.active
        assert plugin.sim.step_count == 3
        # One line per agent plus the HUD text.
        assert len(demo.annotation.last_frame) == 33

    def test_boids_plugin_matches_bare_simulation(self):
        import numpy as np

        from repro.steer import Simulation

        demo = OpenSteerDemo(Clock(dt=1 / 60))
        demo.register(BoidsPlugIn(n=24, seed=5))
        demo.select("Boids")
        demo.run(4)

        bare = Simulation(24, seed=5)
        for _ in range(4):
            bare.update()
        np.testing.assert_allclose(
            demo.active.sim.positions, bare.positions, atol=1e-12
        )

    def test_pursuit_plugin_captures(self):
        demo = OpenSteerDemo(Clock(dt=1 / 30))
        demo.register(PursuitPlugIn())
        demo.select("Pursuit")
        for _ in range(600):
            demo.run_frame()
            if demo.active.captured:
                break
        assert demo.active.captured
        kinds = [i.kind for i in demo.annotation.last_frame]
        assert "text" in kinds  # the CAPTURED banner

    def test_both_plugins_coexist(self):
        demo = OpenSteerDemo()
        demo.register(BoidsPlugIn(n=32, seed=1))
        demo.register(PursuitPlugIn())
        assert demo.plugin_names == ["Boids", "Pursuit"]
        demo.select("Boids")
        demo.run(1)
        demo.select("Pursuit")
        demo.run(1)
