import math

import checks


def test_exit_code():
    assert checks.exit_code(0) is None
    assert "exit code 3" in checks.exit_code(3)
    assert checks.exit_code(None)


def test_no_aborts():
    assert checks.no_aborts(0) is None
    assert checks.no_aborts(2)


def test_no_divergence():
    assert checks.no_divergence(0) is None
    assert "diverged" in checks.no_divergence(1)


def test_mse_within_bound():
    assert checks.mse_within_bound(0.1, 0.2) is None
    assert checks.mse_within_bound(0.1, math.inf) is None
    assert "exceeds" in checks.mse_within_bound(0.3, 0.2)
    assert "not finite" in checks.mse_within_bound(math.inf, 0.2)
    assert "not finite" in checks.mse_within_bound(math.nan, math.inf)


def test_within_witness():
    assert checks.within_witness(0.004, 0.005) is None
    assert checks.within_witness(0.006, 0.005)
    assert checks.within_witness(math.nan, 0.005)


def test_mean_stable():
    assert checks.mean_stable(0.01, 1.2) is None
    assert checks.mean_stable(0.03, -1.1)
    assert checks.mean_stable(math.nan, 1.0)


def test_lambda_min_sym_positive():
    assert checks.lambda_min_sym_positive(0.25) is None
    assert checks.lambda_min_sym_positive(0.0)
    assert checks.lambda_min_sym_positive(-1e-3)
    assert checks.lambda_min_sym_positive(None)


def test_bound_rows_ordered():
    good = [[1, 0.1, 0.5, 0.2, 0.3], [10, 0.01, 0.05, 0.02, 0.03]]
    assert checks.bound_rows_ordered(good) is None
    bad = [good[0], [10, 0.06, 0.05, 0.02, 0.03]]
    assert "t=10" in checks.bound_rows_ordered(bad)
    assert checks.bound_rows_ordered([])


def test_read_csv_skips_provenance(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("# lsalab bound --alpha 0.1\nt,lower,upper\n1,0.5,1.5\n2,0.25,0.75\n")
    header, rows = checks.read_csv(f)
    assert header == ["t", "lower", "upper"]
    assert rows == [[1.0, 0.5, 1.5], [2.0, 0.25, 0.75]]
