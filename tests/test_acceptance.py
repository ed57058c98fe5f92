"""Acceptance gate: one test per numbered criterion.

Every test prints a single ``ACCEPTANCE <n>: PASS/FAIL`` line with the
measured quantities before asserting, so the verdicts can be grepped
out of a full run.  The slow criteria (5 and 6) drive the Monte Carlo
engine at reduced but still meaningful scale; the whole module is
expected to take several minutes single-threaded.
"""

import csv
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from omp_lab.bounds import (
    baseline_bound,
    baseline_interval_upper,
    disparity_bound,
    disparity_interval_upper,
    log_baseline_bound_at,
    log_disparity_bound_at,
)
from omp_lab.cli import EXIT_OK, main
from omp_lab.montecarlo import ExperimentConfig, phi_for_case, run_experiment
from omp_lab.omp import check_exact_recovery, run_omp
from omp_lab.phi import PhiFunction
from omp_lab.signals import (
    Purpose,
    SignalCase,
    StreamKey,
    generate_signal,
    sample_sensing_matrix,
    sample_support,
)

from oracles import brute_force_best_support, vector_disparity_ratio

GRID_M = tuple(range(100, 1001, 50))
GRID_K = (15, 30)
GRID_N = 1024
GRID_CASES = (
    SignalCase.flat(),
    SignalCase.decaying(1.1),
    SignalCase.decaying(1.2),
    SignalCase.gaussian(1.0),
)

_SVG_NS = "{http://www.w3.org/2000/svg}"


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    # Verdict lines go to the real terminal so a plain ``pytest -v`` run
    # shows all ten, not only the failing ones.
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _verdict(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line)
    else:
        print(line)
    assert ok, line


def _polyline_count(path):
    with open(path, encoding="utf-8") as handle:
        return len(ET.fromstring(handle.read()).findall(f".//{_SVG_NS}polyline"))


def _read_results_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@pytest.mark.slow
def test_criterion_01_empirical_budget_coverage(tmp_path):
    code = main(
        ["validate-phi", "--t-max", "50", "--trials", "50000",
         "--threshold", "0.995", "--seed", "0", "--out-dir", str(tmp_path)]
    )
    with open(tmp_path / "phi_validation.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    probs = {int(r["t"]): float(r["empirical_probability"]) for r in rows}
    worst_t = min(range(1, 51), key=lambda t: probs[t])
    ok = code == EXIT_OK and len(probs) == 50 and probs[worst_t] >= 0.995
    _verdict(
        1,
        ok,
        f"50000 trials per size, min probability {probs[worst_t]:.6f} "
        f"at t={worst_t} (required 0.995), exit code {code}",
    )


def test_criterion_02_geometric_vectors_attain_budget():
    worst_rel = 0.0
    worst_at = None
    for alpha in (1.1, 1.2, 2.0, 2.5):
        phi = PhiFunction.strongly_decaying(alpha)
        for t in range(1, 51):
            vec = alpha ** np.arange(t - 1, -1, -1, dtype=float)
            rel = abs(vector_disparity_ratio(vec) - phi(t)) / phi(t)
            if rel > worst_rel:
                worst_rel, worst_at = rel, (alpha, t)
    ok = worst_rel <= 1e-9
    _verdict(
        2,
        ok,
        f"geometric vector ratio matches budget for alpha in "
        f"{{1.1, 1.2, 2, 2.5}}, t=1..50; worst relative error "
        f"{worst_rel:.3e} at (alpha, t)={worst_at} (required 1e-9)",
    )


def test_criterion_03_new_bound_dominates_baseline():
    violations = []
    total = 0
    for K in GRID_K:
        for m in GRID_M:
            base = baseline_bound(m, GRID_N, K)
            for case in GRID_CASES:
                phi = phi_for_case(case)
                new = disparity_bound(m, GRID_N, K, phi)
                total += 1
                strict = (new.feasible and new.value > 0.0) or (
                    base.feasible and base.value > 0.0
                )
                holds = new.value > base.value if strict else new.value >= base.value
                if not holds:
                    violations.append((m, K, phi.label(), new.value, base.value))
    if violations:
        m, K, label, lo, hi = violations[0]
        detail = (
            f"{len(violations)} of {total} grid points have new <= existing; "
            f"first at m={m} K={K} phi={label}: new={lo:.9f} existing={hi:.9f}"
        )
    else:
        detail = f"new bound strictly above existing bound at all {total} grid points"
    _verdict(3, not violations, detail)


def test_criterion_04_bound_grows_with_decay_rate():
    budgets = [
        PhiFunction.cauchy_schwarz(),
        PhiFunction.strongly_decaying(1.1),
        PhiFunction.strongly_decaying(1.2),
    ]
    failures = 0
    total = 0
    for K in GRID_K:
        for m in GRID_M:
            values = [disparity_bound(m, GRID_N, K, phi).value for phi in budgets]
            total += 1
            if not values[2] >= values[1] >= values[0]:
                failures += 1
    _verdict(
        4,
        failures == 0,
        f"decay(1.2) >= decay(1.1) >= cauchy-schwarz ordering holds at "
        f"{total - failures} of {total} grid points",
    )


@pytest.mark.slow
def test_criterion_05_empirical_probability_meets_bound():
    shortfalls = []
    checked = 0
    for m, K in ((600, 15), (900, 30)):
        config = ExperimentConfig(
            n=GRID_N,
            m_values=(m,),
            k_values=(K,),
            cases=GRID_CASES,
            trials=500,
            master_seed=0,
        )
        for point in run_experiment(config, workers=1).points:
            p = point.probability
            slack = 3.0 * math.sqrt(p * (1.0 - p) / point.trials)
            checked += 1
            if p < point.disparity_bound_value - slack:
                shortfalls.append(
                    (m, K, point.case.label(), p, point.disparity_bound_value)
                )
    ok = not shortfalls
    detail = (
        f"{checked} (m, K, case) points at 500 trials; empirical >= bound - "
        f"3*SE everywhere"
        if ok
        else f"{len(shortfalls)} points fall short: {shortfalls[:3]}"
    )
    _verdict(5, ok, detail)


@pytest.mark.slow
def test_criterion_06_curve_shapes_at_reduced_scale(tmp_path):
    code = main(
        ["simulate", "--m-sweep", "100:50:1000", "--n", "1024",
         "--K", "15", "--K", "30",
         "--case", "flat", "--case", "decay11", "--case", "decay12",
         "--case", "gauss",
         "--trials", "200", "--seed", "0", "--threads", "1",
         "--formats", "csv,svg", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    rows = _read_results_csv(tmp_path / "results.csv")
    curves = {}
    for row in rows:
        key = (int(row["K"]), row["case"])
        curves.setdefault(key, []).append(
            (int(row["m"]), float(row["empirical_prob"]))
        )
    for series in curves.values():
        series.sort()

    def stderr(p, n=200):
        return math.sqrt(p * (1.0 - p) / n)

    monotone_breaks = 0
    for series in curves.values():
        for (_, p0), (_, p1) in zip(series, series[1:]):
            if p1 < p0 - 3.0 * math.hypot(stderr(p0), stderr(p1)):
                monotone_breaks += 1

    ordering_breaks = 0
    for K in GRID_K:
        flat = dict(curves[(K, "flat")])
        dec = dict(curves[(K, "decay1.2")])
        for m in GRID_M:
            gap = 3.0 * math.hypot(stderr(flat[m]), stderr(dec[m]))
            if dec[m] < flat[m] - gap:
                ordering_breaks += 1

    figures = [
        tmp_path / f"curves_K{K}_{case.label()}.svg"
        for K in GRID_K
        for case in GRID_CASES
    ]
    figures_ok = all(f.is_file() and _polyline_count(f) == 3 for f in figures)

    ok = (
        len(rows) == len(GRID_M) * len(GRID_K) * len(GRID_CASES)
        and monotone_breaks == 0
        and ordering_breaks == 0
        and figures_ok
    )
    _verdict(
        6,
        ok,
        f"{len(rows)} grid points at 200 trials: {monotone_breaks} monotonicity "
        f"breaks beyond 3*SE, {ordering_breaks} flat-above-decay(1.2) breaks "
        f"beyond noise, {len(figures)} figures with 3 curves each "
        f"{'written' if figures_ok else 'MISSING'}",
    )


def test_criterion_07_solver_agrees_with_exhaustive_search():
    m, n, K = 6, 10, 2
    mismatches = 0
    recovered = 0
    for trial in range(100):
        key = StreamKey(master_seed=7, trial_index=trial)
        matrix = sample_sensing_matrix(m, n, key.with_purpose(Purpose.MATRIX))
        support = sample_support(n, K, key.with_purpose(Purpose.SUPPORT))
        signal = generate_signal(
            n, support, SignalCase.gaussian(1.0), key.with_purpose(Purpose.SIGNAL)
        )
        y = matrix.entries @ signal.values
        result = run_omp(matrix, y, K)
        indicator = check_exact_recovery(result, signal)
        direct = (
            float(np.linalg.norm(result.coefficients - signal.values)) <= 1e-10
        )
        if indicator != direct:
            mismatches += 1
            continue
        if indicator:
            recovered += 1
            best_support, best_residual = brute_force_best_support(matrix, y, K)
            omp_support = tuple(int(i) for i in result.support)
            if best_support != omp_support or best_residual > 1e-8 * float(
                np.linalg.norm(y)
            ):
                mismatches += 1
    _verdict(
        7,
        mismatches == 0,
        f"100 instances (m=6, n=10, K=2): {recovered} exact recoveries, all "
        f"matched by exhaustive search at the same support; "
        f"{mismatches} disagreements",
    )


def test_criterion_08_solver_invariants_on_random_instances():
    m, n, K = 32, 64, 5
    worst_corr = 0.0
    norm_breaks = 0
    index_breaks = 0
    for trial in range(1000):
        key = StreamKey(master_seed=8, trial_index=trial)
        matrix = sample_sensing_matrix(m, n, key.with_purpose(Purpose.MATRIX))
        gen = key.with_purpose(Purpose.SIGNAL).generator()
        if trial % 2 == 0:
            support = sample_support(n, K, key.with_purpose(Purpose.SUPPORT))
            signal = generate_signal(
                n, support, SignalCase.gaussian(1.0), key.with_purpose(Purpose.SIGNAL)
            )
            y = matrix.entries @ signal.values
        else:
            y = gen.standard_normal(m)
        y_norm = float(np.linalg.norm(y))

        full = run_omp(matrix, y, K)
        if len(set(full.selected)) != len(full.selected):
            index_breaks += 1
        norms = full.residual_norms
        if any(b > a + 1e-9 * y_norm for a, b in zip(norms, norms[1:])):
            norm_breaks += 1
        for depth in range(1, full.iterations + 1):
            partial = run_omp(matrix, y, depth)
            chosen = np.asarray(partial.selected, dtype=int)
            corr = float(
                np.max(np.abs(matrix.entries[:, chosen].T @ partial.residual))
            )
            worst_corr = max(worst_corr, corr / y_norm)
    ok = worst_corr <= 1e-8 and norm_breaks == 0 and index_breaks == 0
    _verdict(
        8,
        ok,
        f"1000 instances (m=32, n=64, K=5): max post-iteration correlation "
        f"{worst_corr:.3e} of ||y|| (required 1e-8), {norm_breaks} residual "
        f"increases, {index_breaks} duplicate selections",
    )


@pytest.mark.slow
def test_criterion_09_maximizer_matches_dense_reference():
    rng = np.random.default_rng(93)
    budgets = (
        PhiFunction.cauchy_schwarz(),
        PhiFunction.strongly_decaying(1.1),
        PhiFunction.strongly_decaying(1.2),
        PhiFunction.strongly_decaying(2.0),
        PhiFunction.gaussian_empirical(),
    )
    count = 1_000_000
    steps = np.arange(1, count + 1, dtype=float)
    worst = 0.0
    worst_at = None
    for _ in range(50):
        K = int(rng.integers(2, 13))
        m = int(rng.integers(25 * K, 1200 + 25 * K))
        n = int(rng.integers(K + 2, 2049))
        phi = budgets[int(rng.integers(len(budgets)))]

        new = disparity_bound(m, n, K, phi)
        upper = disparity_interval_upper(m, K, phi)
        dense_logs = log_disparity_bound_at(m, n, K, phi, upper * steps / count)
        dense_new = float(np.exp(min(np.max(dense_logs), 0.0)))
        err_new = abs(new.value - dense_new)

        base = baseline_bound(m, n, K)
        width = baseline_interval_upper(m, K)
        dense_logs = log_baseline_bound_at(m, n, K, width * steps / (count + 1))
        dense_base = float(np.exp(min(np.max(dense_logs), 0.0)))
        err_base = abs(base.value - dense_base)

        err = max(err_new, err_base)
        if err > worst:
            worst, worst_at = err, (m, n, K, phi.label())
    ok = worst <= 1e-8
    _verdict(
        9,
        ok,
        f"50 random queries vs 1e6-point dense grids: worst absolute "
        f"difference {worst:.3e} at (m, n, K, phi)={worst_at} (required 1e-8)",
    )


def test_criterion_10_byte_identical_output_across_threads(tmp_path):
    sim = [
        "simulate", "--m", "30", "--m", "50", "--n", "64", "--K", "3",
        "--case", "flat", "--case", "gauss", "--trials", "10", "--seed", "3",
        "--formats", "csv",
    ]
    sim_bytes = set()
    for tag, threads in (("s1", "1"), ("s2", "2"), ("s3", "3"), ("s1b", "1")):
        out = tmp_path / tag
        assert (
            main(sim + ["--threads", threads, "--out-dir", str(out)]) == EXIT_OK
        )
        sim_bytes.add((out / "results.csv").read_bytes())

    # validate-phi runs in process and takes no --threads
    val = ["validate-phi", "--t-max", "6", "--trials", "300", "--seed", "3"]
    val_bytes = set()
    for tag in ("v1", "v1b", "v1c"):
        out = tmp_path / tag
        assert main(val + ["--out-dir", str(out)]) == EXIT_OK
        val_bytes.add((out / "phi_validation.csv").read_bytes())

    ok = len(sim_bytes) == 1 and len(val_bytes) == 1
    _verdict(
        10,
        ok,
        f"simulate CSV identical across threads 1/2/3 and reruns "
        f"({len(sim_bytes)} distinct byte strings); validate-phi CSV identical "
        f"across three reruns ({len(val_bytes)} distinct)",
    )
