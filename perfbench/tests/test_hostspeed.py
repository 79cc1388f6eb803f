import pytest

import hostspeed


def test_clock_scales_work_by_the_kernel_at_both_ends(monkeypatch):
    ref = hostspeed.REF_S
    # kernel medians per calibration: 2 ref (half speed), then ref, then 3 ref
    runs = iter([9 * ref, 2 * ref, 2 * ref, ref, ref, 3 * ref, 3 * ref])  # a warm-up first
    monkeypatch.setattr(hostspeed, "kernel", lambda: next(runs))
    monkeypatch.setattr(hostspeed, "REPEATS", 2)

    clock = hostspeed.Clock(setup_s=1.0)
    clock.calibrate()
    clock.add(wall_s=3.0, cpu_s=1.5)
    clock.calibrate()
    clock.add(wall_s=2.0, cpu_s=2.0)
    clock.add(wall_s=2.0, cpu_s=2.0)
    clock.calibrate()

    assert clock.raw == {"setup_s": 1.0, "wall_s": 7.0, "cpu_s": 5.5}
    assert clock.ref["setup_s"] == pytest.approx(0.5)  # the first calibration alone
    # 3 s at a mean kernel of 1.5 ref, then 4 s at a mean of 2 ref
    assert clock.ref["wall_s"] == pytest.approx(3.0 / 1.5 + 4.0 / 2.0)
    assert clock.ref["cpu_s"] == pytest.approx(1.5 / 1.5 + 4.0 / 2.0)
    assert clock.kernel_s == [2 * ref, 2 * ref, ref, ref, 3 * ref, 3 * ref]


def test_kernel_takes_a_positive_time():
    assert hostspeed.kernel() > 0
