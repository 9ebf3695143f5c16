import json
import math
from collections import Counter

import numpy as np
import pytest

from numrange.diskfun import (
    Blaschke,
    Compose,
    Mobius,
    Polynomial,
    Scale,
    eval_matrix,
    mobius_automorphism,
)
from numrange.errors import NumericError, PolesNearSpectrumError
from numrange.blaschke import BlaschkeProduct
from numrange.formats import parse_complex, parse_matrix
from numrange.fov import boundary, support_values
from numrange.linalg import min_eigenvalue
from numrange.regions import q_form, teardrop_distance, teardrop_support
from numrange import diskfun, fov, lockstep, verify
from numrange.cli import main
from numrange.verify import (
    VerifyReport,
    _trial_rng,
    check_berger_stampfli,
    check_drury,
    check_local_inequality,
    check_operator_inequality,
    check_power_inequality,
    check_props52,
    check_region_S,
    extremal_search,
    normalize_radius,
    random_blaschke,
    random_matrix,
    run_suites,
)

SHARP = Mobius(1, -2, 2, -1)
SHIFT2 = np.array([[0, 2], [0, 0]], dtype=complex)


def traced_suite(monkeypatch, check, trials, seed, force=None):
    """check(trials, seed) with its resolvent solves counted: (report, the
    number of trials whose systems each diskfun._solve_systems call solves,
    {trial: (f, T, f(T))} from the trials' rec.eval_matrix). With force, the
    systems of trial force in the first call raise PolesNearSpectrumError
    whenever they are asked."""
    real, real_eval = diskfun._solve_systems, verify._Recorder.eval_matrix
    calls, forced, evals, owner = [], [], {}, {}

    def answer(systems):
        trials = [owner[id(system)] for system in systems]
        if force is not None and not calls:
            forced.extend(s for s, k in zip(systems, trials) if k == force)
        calls.append(len(set(trials)))
        if any(system is bad for system in systems for bad in forced):
            raise PolesNearSpectrumError("forced pole near the spectrum")
        return real(systems)

    def recorded(rec, f, T):
        # real_eval's steps, with each yielded system tagged by its trial
        steps, value = real_eval(rec, f, T), None
        try:
            while True:
                request = (steps.throw(value) if isinstance(value, PolesNearSpectrumError)
                           else steps.send(value))
                owner.update((id(system), rec.trial) for system in request[1])
                try:
                    value = yield request
                except PolesNearSpectrumError as exc:
                    value = exc
        except StopIteration as stop:
            evals[rec.trial] = (f, T, stop.value)
            return stop.value

    with monkeypatch.context() as m:
        m.setattr(diskfun, "_solve_systems", answer)
        m.setattr(verify._Recorder, "eval_matrix", recorded)
        return check(trials, seed), calls, evals


class TestSamplers:
    def test_random_matrix_dims(self):
        rng = np.random.default_rng(1)
        dims = {random_matrix(rng).shape[0] for _ in range(200)}
        assert dims == set(range(2, 9))

    def test_normalize_radius_hits_one(self):
        rng = np.random.default_rng(2)
        from numrange.fov import numerical_radius
        T = normalize_radius(random_matrix(rng, 4))
        assert numerical_radius(T) == pytest.approx(1.0, abs=1e-5)

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            normalize_radius(np.zeros((3, 3), dtype=complex))

    def test_random_blaschke_vanishes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            B = random_blaschke(rng, 6)
            assert B.vanishes_at_zero()
            assert 1 <= len(B.zeros) <= 6
            assert max(abs(a) for a in B.zeros) <= 0.9


class TestSuitesPass:
    @pytest.mark.parametrize("check", [
        check_berger_stampfli,
        check_local_inequality,
        check_operator_inequality,
        check_drury,
        check_props52,
    ])
    def test_small_run_has_no_failures(self, check):
        report = check(25, seed=7)
        assert report.passed
        assert report.failures == 0
        assert report.worst_residual <= report.tolerance

    def test_power_inequality(self):
        report = check_power_inequality(25, seed=7)
        assert report.passed

    def test_region_s_membership_and_sharpness(self):
        report = check_region_S(10, seed=7)
        assert report.passed
        # the sharpness witnesses below the boundary must go strictly negative
        assert report.worst_residual <= report.tolerance

    def test_scale_retry_fallback(self, monkeypatch):
        # the first evaluation hits a pole: the stack of three fails, each
        # trial's systems are asked alone, and trial 0 alone evaluates
        # f(0.999 z)
        report, calls, evals = traced_suite(monkeypatch, check_berger_stampfli, 3, 1,
                                            force=0)
        assert report.retries == 1
        assert report.failures == 0
        assert calls == [3, 1, 1, 1, 1]
        f, T, FT = evals[0]
        assert FT.tobytes() == eval_matrix(Scale(0.999, f), T).tobytes()

    def test_singular_trial_of_a_wave_retries_alone(self, monkeypatch):
        # trial 2 of a stacked wave is singular: it alone asks again, with
        # Scale(0.999, f), whose Blaschke level joins the others' Mobius
        # level, and the other trials' f(T) keep their bits
        _, _, clean = traced_suite(monkeypatch, check_drury, 6, 4)
        report, calls, forced = traced_suite(monkeypatch, check_drury, 6, 4, force=2)
        assert (report.retries, report.failures) == (1, 0)
        assert calls == [6] + [1] * 6 + [6, 1]
        f, T, FT = forced[2]
        assert FT.tobytes() == eval_matrix(Scale(0.999, f), T).tobytes()
        for k in (0, 1, 3, 4, 5):
            assert forced[k][2].tobytes() == clean[k][2].tobytes()


class TestQFormSuites:
    def test_failing_witness_matches_per_point_solve(self, monkeypatch):
        # at radius 3, Q(T, t, t^2 - 1/4) has negative eigenvalues; the
        # witness must be the first failing grid point, with its exact lam_min
        normalize, stack = verify.normalize_radius, verify.normalize_radii
        monkeypatch.setattr(verify, "normalize_radii",
                            lambda mats: [3.0 * T for T in stack(mats)])
        report = check_operator_inequality(4, seed=2)
        assert report.failures > 0
        w = report.witness
        T = parse_matrix(w["matrix"])
        assert np.array_equal(T, 3.0 * normalize(random_matrix(
            _trial_rng(2, "operator-ineq", w["trial"]))))
        assert w["lam_min"] == min_eigenvalue(q_form(T, w["t"], w["s"]))
        ts = np.linspace(0.0, 0.5, 21)
        first = next(t for t in ts.tolist()
                     if -min_eigenvalue(q_form(T, t, t * t - 0.25)) > report.tolerance)
        assert (w["t"], w["s"]) == (first, first * first - 0.25)

    @pytest.mark.parametrize("suite, subgrid, points, uncertified, table", [
        ("operator-ineq", 3, 21, [], []),
        ("region-s", 7, 61, [2], [63]),
    ], ids=["operator-ineq", "region-s"])
    def test_one_eigensolve_call_per_size(self, monkeypatch, suite, subgrid, points,
                                          uncertified, table):
        # the matrices whose lambda_min a 20-trial call solves exactly: the
        # grids' every SUBGRID-th distinct point, in one stacked call per
        # size of T in the order of the first trial of each size; the points
        # that certify_above could not certify, one call per size that has
        # any (at seed 1, two of region-s's n = 5 stack); and region-s's
        # sharpness table once per process. The reference path solves each
        # trial's distinct points in one call
        calls = []

        def counted(H, *args):
            calls.append(len(H))
            return min_eigenvalue(H, *args)

        verify._sharpness_table.cache_clear()
        monkeypatch.setattr(verify, "min_eigenvalue", counted)
        sizes = Counter(len(random_matrix(_trial_rng(1, suite, i))) for i in range(20))
        assert len(sizes) == 7
        runs = []
        for answer in (verify._psds, verify._psds, _exact_psds):
            monkeypatch.setattr(verify, "_psds", answer)
            calls.clear()
            assert verify.SUITES[suite](20, seed=1).passed
            runs.append(list(calls))
        first, second, reference = runs
        per_size = [subgrid * count for count in sizes.values()]
        assert first == per_size + uncertified + table
        assert second == per_size + uncertified
        assert reference == [points] * 20
        assert [sum(run) for run in runs] == [20 * subgrid + sum(uncertified + table),
                                              20 * subgrid + sum(uncertified), 20 * points]

    def test_region_s_solves_each_distinct_point_once(self, monkeypatch):
        # region-s's grid repeats t = 0.5 (indices 20 and 21) and t = 1 (41
        # and 42), with bitwise equal Q-forms: a 20-trial call at seed 1
        # factors 54 points per trial, not 56, in the first cholesky call of
        # each size, and solves its 7 subgrid points per trial in one call
        # per size. Only the n = 5 stack, with two points left uncertified,
        # is split into smaller cholesky calls, and solves those two exactly
        assert check_region_S(0, seed=1).passed  # the sharpness table, built once
        factored, solved = [], []
        cholesky = np.linalg.cholesky

        def counted_cholesky(A):
            factored.append((A.shape[-1], len(A)))
            return cholesky(A)

        def counted_solve(H, *args):
            solved.append((H.shape[-1], len(H)))
            return min_eigenvalue(H, *args)

        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(verify, "min_eigenvalue", counted_solve)
        assert check_region_S(20, seed=1).passed
        sizes = Counter(len(random_matrix(_trial_rng(1, "region-s", i))) for i in range(20))
        calls = Counter(n for n, _ in factored)
        assert [n for n, _ in factored] == [n for n in sizes for _ in range(calls[n])]
        first = dict(reversed(factored))  # each size's first call
        assert [(n, first[n]) for n in sizes] == [(n, 54 * count) for n, count in sizes.items()]
        assert [n for n in sizes if calls[n] > 1] == [5]
        assert solved == [(n, 7 * count) for n, count in sizes.items()] + [(5, 2)]

    @pytest.mark.parametrize("suite, subgrid", [
        ("operator-ineq", [0.0, 0.25, 0.5]),
        ("region-s", [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]),
    ], ids=["operator-ineq", "region-s"])
    def test_exact_subgrid_is_each_branchs_ends_and_midpoint(self, monkeypatch, suite,
                                                             subgrid):
        # every SUBGRID-th point of the grid of distinct points: the first
        # _q_stack call builds the Q-forms that _psds solves exactly
        grids, q_stack = [], verify._q_stack

        def recorded(Ts, ts, ss):
            grids.append((ts, ss))
            return q_stack(Ts, ts, ss)

        monkeypatch.setattr(verify, "_q_stack", recorded)
        assert verify.SUITES[suite](1, seed=1).passed
        ts, ss = grids[0]
        assert ts.tolist() == subgrid
        assert ss.tolist() == [verify.regions.region_S_boundary(t) for t in subgrid]

    def test_repeated_points_count_twice(self, monkeypatch):
        # at radius 3 both copies of a repeated point fail; the report
        # counts each, as the reference path does, and names the first
        scaled = verify.normalize_radii
        monkeypatch.setattr(verify, "normalize_radii", lambda mats: [3.0 * T for T in scaled(mats)])
        report = check_region_S(4, seed=2)
        monkeypatch.setattr(verify, "_psds", _exact_psds)
        assert report.failures > 0
        assert report == check_region_S(4, seed=2)
        T = parse_matrix(report.witness["matrix"])
        lams = min_eigenvalue(q_form(T, *verify._boundary_points((0.0, 0.5), (0.5, 1.0),
                                                                  (1.0, 2.0))))
        assert lams[20] == lams[21] and lams[41] == lams[42]

    def test_sharpness_table_q_form_calls(self, monkeypatch):
        # the 63 counterexamples' Q-forms, built point by point
        shapes = []

        def counted(T, t, s):
            shapes.append(np.shape(t))
            return q_form(T, t, s)

        verify._sharpness_table.cache_clear()
        monkeypatch.setattr(verify.regions, "q_form", counted)
        assert check_region_S(0, seed=1).passed
        assert shapes == [()] * 63


class TestDrury:
    def test_crossing_between_grid_angles_fails(self):
        # W(F) = D(c0, 1/2) passes the line of td(alpha)'s tangent segment by
        # 1e-5 in its normal direction, 60.5 degrees, half-way between two
        # angles of a 360-point sweep; the sweep's margin was 4.8e-7 < tol
        tol = 1e-6
        alpha = 0.5 * np.exp(1j * np.pi / 360)
        normal = np.exp(1j * (np.pi / 360 + np.pi / 3))
        F = (0.5 + 1e-5) * normal * np.eye(2) + np.array([[0, 1], [0, 0]])
        assert teardrop_distance(alpha, boundary(F, 360).points).max() < tol
        [(theta, excess)] = lockstep.run([verify._excess_body(F, alpha, tol)])
        assert excess == pytest.approx(1e-5, rel=1e-6)
        assert support_values(F, [theta])[0] - teardrop_support(alpha, theta) == excess

    def test_radius_above_one_fails_with_checkable_witness(self, monkeypatch):
        stack = verify.normalize_radii
        monkeypatch.setattr(verify, "normalize_radii",
                            lambda mats: [1.02 * T for T in stack(mats)])
        report = check_drury(8, seed=2)
        assert report.failures > 0 and report.retries == 0
        w = report.witness
        alpha = parse_complex(w["alpha"])
        B = BlaschkeProduct(parse_complex(w["constant"]),
                            tuple(parse_complex(a) for a in w["zeros"]))
        F = eval_matrix(Compose(mobius_automorphism(alpha), Blaschke(B)),
                        parse_matrix(w["matrix"]))
        assert w["excess"] > report.tolerance
        assert (support_values(F, [w["theta"]])[0] - teardrop_support(alpha, w["theta"])
                == pytest.approx(w["excess"], abs=1e-12))

    def test_two_pencil_solves_and_no_boundary_sweep(self, monkeypatch):
        # the five trials draw n = 7, 6, 5, 2, 8, so the one wave of level
        # pairs makes one stacked eigvals call per size, each with a trial's
        # two 2n x 2n matrices
        stacks, sweeps = [], []
        eigvals = np.linalg.eigvals

        def counted(a):
            stacks.append(np.shape(a))
            return eigvals(a)

        def sweep(*args):
            sweeps.append(args)
            return boundary(*args)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        monkeypatch.setattr(fov, "boundary", sweep)
        monkeypatch.setattr(verify, "boundary", sweep, raising=False)
        assert check_drury(5, seed=1).passed
        assert sweeps == []
        assert stacks == [(2, 4, 4), (2, 10, 10), (2, 12, 12), (2, 14, 14), (2, 16, 16)]


class TestLockstep:
    def test_power_stacks_radii_across_trials(self, monkeypatch):
        # the same Hermitian matrices as one radius call per power per trial
        # (553 calls), in a quarter of the calls or fewer; the coarse stage
        # solves 8 angles per matrix for its 16 samples, and one cell of a
        # live antipodal pair reads the other's solve (1447 matrices before).
        # A power stops once its cell bounds show that it passes and cannot
        # be the worst (1446 matrices and 58 calls when every power was
        # refined to rounding)
        calls, matrices = [], []

        def counted(solve):
            def solve_counted(a, *args, **kwargs):
                calls.append(solve.__name__)
                matrices.append(len(a) if np.ndim(a) == 3 else 1)
                return solve(a, *args, **kwargs)
            return solve_counted

        monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
        assert check_power_inequality(20, seed=1).passed
        assert sum(matrices) == 628
        assert len(calls) <= 39

    @pytest.mark.parametrize("suite, degree", [
        ("berger-stampfli", 5),  # the Blaschke factors
        ("drury", 4),  # the Blaschke factors, then phi_alpha
    ], ids=["berger-stampfli", "drury"])
    def test_one_resolvent_solve_per_size_per_wave(self, monkeypatch, suite, degree):
        # every factor of every trial of a wave in one np.linalg.solve call
        # per size; drury's level cuts solve (k, n, 2n) right-hand sides
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            if b.shape[-1] == a.shape[-1]:
                calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        assert verify.SUITES[suite](20, seed=1).passed
        factors, trials = Counter(), Counter()
        for n, zeros in _trial_zeros(suite, degree, 1, 20):
            factors[n] += zeros
            trials[n] += 1
        assert len(factors) == 7
        want = [(k, n, n) for n, k in factors.items()]
        if suite == "drury":
            want += [(k, n, n) for n, k in trials.items()]
        assert calls == want

    # (answer, items) of each call after the normalization's numerical_radii
    # call; _checked_radii's own numerical_radii call follows it, and None
    # counts one system per Blaschke zero of every trial
    WAVES = {
        "berger-stampfli": [("_solve_systems", None), ("_checked_radii", 20),
                            ("numerical_radii", 20)],
        "power": [("_checked_radii", 100), ("numerical_radii", 100)],
        "local-ineq": [],
        "operator-ineq": [("_psds", 20)],
        "region-s": [("_psds", 20)],
        "drury": [("_solve_systems", None), ("_solve_systems", 20), ("level_cuts", 40),
                  ("support_samples", 20), ("_checked_radii", 20), ("numerical_radii", 20)],
        "props52": [("numerical_radii", 20)],
    }

    @pytest.mark.parametrize("suite", list(verify.SUITES))
    def test_each_wave_is_one_call_per_answer(self, monkeypatch, suite):
        # each wave (drury's resolvent solves for B(T) and then for
        # phi_alpha(B(T)), the level cuts, the support samples, then the
        # radii) is answered by one call on the items of all 20 trials; a
        # suite that answered its trials one at a time would show 20 calls
        # of a trial's items each
        calls = []

        def counted(answer):
            def wrapped(items, *args):
                calls.append((answer.__name__, len(items)))
                return answer(items, *args)
            return wrapped

        for name in ("level_cuts", "support_samples", "numerical_radii", "_checked_radii",
                     "_psds"):
            monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
        monkeypatch.setattr(diskfun, "_solve_systems", counted(diskfun._solve_systems))
        assert verify.SUITES[suite](20, seed=3).passed
        def zeros():
            return sum(k for _, k in _trial_zeros(suite, 4 if suite == "drury" else 5, 3, 20))

        assert calls == [("numerical_radii", 20)] + [
            (name, zeros() if count is None else count) for name, count in self.WAVES[suite]]

    @pytest.mark.parametrize("suite", list(verify.SUITES))
    def test_one_lockstep_run_per_suite_call(self, monkeypatch, suite):
        # f(T)'s resolvent solves are steps of the trials' own bodies, so
        # no kernel call runs a lockstep of its own
        runs = []
        real = lockstep.run

        def counted(bodies):
            runs.append(len(bodies))
            return real(bodies)

        monkeypatch.setattr(lockstep, "run", counted)
        assert verify.SUITES[suite](20, seed=3).passed
        assert runs == [20]

    def test_requests_group_by_answer_function(self):
        calls = []

        def double(items):
            calls.append(("double", items))
            return [2 * x for x in items]

        def odd_fails(items):
            calls.append(("odd_fails", items))
            odd = [x for x in items if x % 2]
            if odd:
                raise NumericError(odd[0])
            return items

        def body(answer, items):
            try:
                got = yield answer, items
            except NumericError as exc:
                return "raised", exc.args[0]
            return "answered", (yield double, got)

        bodies = [body(odd_fails, [1]), body(double, [2, 3]), None, body(odd_fails, [2, 4])]
        assert lockstep.run(bodies) == [("raised", 1), ("answered", [8, 12]), None,
                                        ("answered", [4, 8])]
        # one call per answer function and wave, in order of first
        # appearance, on the bodies' item lists joined in body order, each
        # body sent its own slice; the odd_fails stack raised, so each
        # body's list was asked alone
        assert calls == [("odd_fails", [1, 2, 4]), ("odd_fails", [1]), ("odd_fails", [2, 4]),
                         ("double", [2, 3]), ("double", [4, 6, 2, 4])]

    def test_a_raising_stack_is_asked_again_body_by_body(self):
        calls = []

        def answer(items):
            calls.append(list(items))
            if "bad" in items:
                raise NumericError(f"bad among {len(items)}")
            return [x.upper() for x in items]

        def body(*items):
            try:
                return (yield answer, list(items))
            except NumericError as exc:
                return str(exc)

        # one call for the stack, then one per body's list; the bad body
        # gets its own error at its yield and the others their answers
        assert lockstep.run([body("a"), body("bad", "b"), body("c", "d")]) == [
            ["A"], "bad among 2", ["C", "D"]]
        assert calls == [["a", "bad", "b", "c", "d"], ["a"], ["bad", "b"], ["c", "d"]]
        calls.clear()
        assert lockstep.run([body("a"), body("c")]) == [["A"], ["C"]]
        assert calls == [["a", "c"]]

    def test_other_exceptions_propagate_at_once(self):
        calls, thrown = [], []

        def answer(items):
            calls.append(list(items))
            raise KeyError("not a numrange error")

        def body(item):
            try:
                return (yield answer, [item])
            except Exception as exc:
                thrown.append(exc)
                raise

        with pytest.raises(KeyError):
            lockstep.run([body(1), body(2)])
        assert calls == [[1, 2]]
        assert thrown == []

    def test_zero_trials(self):
        report = check_power_inequality(0, seed=1)
        assert (report.trials, report.failures, report.witness) == (0, 0, None)


def _trial_zeros(suite: str, degree: int, seed: int, trials: int) -> list:
    """(n, the number of zeros of B) for each trial of berger-stampfli or
    drury, whose Blaschke products have at most degree zeros."""
    draws = []
    for i in range(trials):
        rng = _trial_rng(seed, suite, i)
        n = len(random_matrix(rng))
        if suite == "drury":
            rng.uniform(size=2)  # alpha
        draws.append((n, len(random_blaschke(rng, degree).zeros)))
    return draws


def _exact_checked_radii(items):
    """The reference path for _checked_radii: the exact radii of its matrices."""
    return verify.numerical_radii([F for F, _, _ in items]).tolist()


def _exact_psds(mats, ts, ss, tol):
    """The reference path for _psds: lambda_min at every grid point."""
    return [verify.min_eigenvalue(q_form(T, ts, ss)) for T in mats]


class TestQFormCertificate:
    # operator-ineq and region-s ask _psds, which answers the grid points
    # that certify_above proves to pass, below the call's worst residual,
    # with a level below lambda_min: their reports must keep the bytes of
    # the reference path
    SUITES = ["operator-ineq", "region-s"]

    @staticmethod
    def _both(monkeypatch, run):
        """(run() as it is, run() on the reference path, whether some
        answer of the first run was a certified level). Both runs ask the
        same waves, and each answer is checked against the reference
        path's lambda_min at its point. The second run reuses the first
        run's normalized draws, which _psds does not touch."""
        answers = {verify._psds: [], _exact_psds: []}
        normalized, draws = verify.normalize_radii, {}

        def normalize_once(mats):
            key = tuple(T.tobytes() for T in mats)
            if key not in draws:
                draws[key] = normalized(mats)
            return draws[key]

        reports = []
        for answer, replies in answers.items():
            def recorded(*request, answer=answer, replies=replies):
                replies.append(answer(*request))
                return replies[-1]

            with monkeypatch.context() as m:
                m.setattr(verify, "_psds", recorded)
                m.setattr(verify, "normalize_radii", normalize_once)
                reports.append(run())
        certified = False
        for wave, exact_wave in zip(*answers.values(), strict=True):
            for values, exact in zip(wave, exact_wave, strict=True):
                assert np.all(values <= exact)
                certified |= bool(np.any(values != exact))
        return *reports, certified

    @staticmethod
    def _scaled(monkeypatch, scale):
        """T scaled by scale after normalization."""
        normalized = verify.normalize_radii
        monkeypatch.setattr(verify, "normalize_radii",
                            lambda mats: [scale * T for T in normalized(mats)])

    def _same_reports(self, monkeypatch, suite, trials, seeds):
        """The summed failures of the suite's reports at these seeds, each
        checked to keep the reference path's text and --json bytes."""
        failures = 0
        for seed in seeds:
            fast, reference, certified = self._both(
                monkeypatch, lambda: verify.SUITES[suite](trials, seed))
            assert certified
            assert fast.to_text() == reference.to_text()
            assert json.dumps(fast.to_json_dict()) == json.dumps(reference.to_json_dict())
            failures += fast.failures
        return failures

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("trials, seeds", [(20, range(60)), (200, range(5)),
                                               (1000, range(2))],
                             ids=["20x60", "200x5", "1000x2"])
    def test_reports_keep_their_bytes(self, monkeypatch, suite, trials, seeds):
        assert self._same_reports(monkeypatch, suite, trials, seeds) == 0

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("scale", [1.02, 1 + 1e-5, 1 + 1e-7],
                             ids=["1.02", "1+1e-5", "1+1e-7"])
    def test_failing_reports_keep_their_bytes(self, monkeypatch, suite, scale):
        # at 1.02 many trials fail, at 1 + 1e-5 a few; at 1 + 1e-7 none
        # does, and the worst residuals come within 3e-6 of the tolerance
        self._scaled(monkeypatch, scale)
        failures = self._same_reports(monkeypatch, suite, 20, range(20))
        failures += self._same_reports(monkeypatch, suite, 200, range(2))
        assert (failures > 0) == (scale > 1 + 1e-6)

    @pytest.mark.parametrize("suite", SUITES)
    def test_failing_witness_replay_keeps_its_bytes(self, monkeypatch, capsys, suite):
        self._scaled(monkeypatch, 1.02)
        witness = verify.SUITES[suite](20, 1).witness

        def replay():
            assert main(["verify", "--suite", suite, "--seed", "1", "--trial",
                         str(witness["trial"]), "--json"]) == 1
            return capsys.readouterr().out

        fast, reference, _ = self._both(monkeypatch, replay)
        assert fast == reference
        assert json.loads(fast)[0]["witness"] == witness

    def test_record_all_is_record_in_turn(self):
        # the max fold keeps the first of equal residuals, so 0.0 after
        # -0.0 leaves -0.0; failures count and the first failing witness
        rng = np.random.default_rng(5)
        rows = [np.array([-0.0, 0.0, -1.0]), np.array([0.0, -0.0]), np.array([]),
                np.array([2.0, -3.0, 2.0, 1.0])]
        rows += [np.round(rng.normal(size=9), 1) for _ in range(20)]
        for row in rows:
            one, each = verify._Recorder(3), verify._Recorder(3)
            one.record_all(row, 0.5, lambda j: {"j": j})
            for j, r in enumerate(row.tolist()):
                each.record(r, 0.5, lambda: {"j": j})
            assert (one.failures, one.witness) == (each.failures, each.witness)
            assert math.copysign(1.0, one.worst) == math.copysign(1.0, each.worst)
            assert one.worst == each.worst and type(one.worst) is float

    def test_record_all_rejects_a_non_finite_residual(self):
        with pytest.raises(NumericError, match="residual nan"):
            verify._Recorder().record_all(np.array([0.0, np.nan]), 1.0, None)


class TestCheckedRadii:
    # berger-stampfli, power and drury ask _checked_radii, whose radius
    # search stops the matrices that pass and cannot set the worst residual:
    # their reports must keep the bytes of the reference path
    SUITES = ["berger-stampfli", "power", "drury"]

    @staticmethod
    def _both(monkeypatch, run):
        """(run() as it is, run() on the reference path, whether some
        checked answer of the first run fell below its exact radius)."""
        real, lower = verify._checked_radii, []

        def watched(items):
            values = real(items)
            exact = _exact_checked_radii(items)
            assert all(v <= w for v, w in zip(values, exact, strict=True))
            lower.append(values != exact)
            return values

        with monkeypatch.context() as m:
            m.setattr(verify, "_checked_radii", watched)
            fast = run()
        with monkeypatch.context() as m:
            m.setattr(verify, "_checked_radii", _exact_checked_radii)
            reference = run()
        return fast, reference, any(lower)

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("seed", [0, 1, 5, 42])
    def test_reports_keep_their_bytes(self, monkeypatch, suite, seed):
        fast, reference, stopped = self._both(monkeypatch,
                                              lambda: verify.SUITES[suite](20, seed))
        assert stopped
        assert fast.to_text() == reference.to_text()
        assert json.dumps(fast.to_json_dict()) == json.dumps(reference.to_json_dict())

    @pytest.mark.parametrize("suite", SUITES)
    def test_trial_replay_keeps_its_bytes(self, monkeypatch, capsys, suite):
        def replay():
            assert main(["verify", "--suite", suite, "--seed", "1", "--trial", "7",
                         "--json"]) == 0
            return capsys.readouterr().out

        fast, reference, _ = self._both(monkeypatch, replay)
        assert fast == reference

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("scale", [1.02, 1 + 1e-7], ids=["1.02", "1+1e-7"])
    def test_failing_reports_keep_their_bytes(self, monkeypatch, suite, scale):
        # T scaled after normalization: at 1.02 trials of every suite fail;
        # at 1 + 1e-7 berger-stampfli's B(z) = cz trials sit at tolerance
        normalized = verify.normalize_radii
        monkeypatch.setattr(verify, "normalize_radii",
                            lambda mats: [scale * T for T in normalized(mats)])
        failures = 0
        for seed in range(4):
            fast, reference, _ = self._both(monkeypatch, lambda: verify.SUITES[suite](20, seed))
            assert fast.to_text() == reference.to_text()
            failures += fast.failures
        if scale == 1.02 or suite == "berger-stampfli":
            assert failures > 0

    @pytest.mark.parametrize("suite, solved, reference", [
        ("berger-stampfli", 399, 551),
        ("drury", 374, 549),
    ], ids=["berger-stampfli", "drury"])
    def test_stopped_trials_solve_fewer_matrices(self, monkeypatch, suite, solved, reference):
        # the Hermitian matrices that eigh and eigvalsh solve in a 20-trial
        # call, the normalization's included, and on the reference path
        # (TestLockstep pins power's)
        matrices = []

        def counted(solve):
            def solve_counted(a, *args, **kwargs):
                matrices.append(len(a) if np.ndim(a) == 3 else 1)
                return solve(a, *args, **kwargs)
            return solve_counted

        monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
        counts = []
        for answer in (verify._checked_radii, _exact_checked_radii):
            monkeypatch.setattr(verify, "_checked_radii", answer)
            matrices.clear()
            assert verify.SUITES[suite](20, seed=1).passed
            counts.append(sum(matrices))
        assert counts == [solved, reference]


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = check_berger_stampfli(20, seed=11).to_text()
        b = check_berger_stampfli(20, seed=11).to_text()
        assert a == b

    def test_different_seed_differs(self):
        a = check_berger_stampfli(20, seed=11)
        b = check_berger_stampfli(20, seed=12)
        assert a.worst_residual != b.worst_residual

    def test_run_suites_deterministic(self):
        names = ["power", "local-ineq"]
        first = "".join(r.to_text() for r in run_suites(names, 10, 5))
        second = "".join(r.to_text() for r in run_suites(names, 10, 5))
        assert first == second

    def test_trial_isolation(self):
        # trial i draws the same data regardless of how many trials run
        small = check_power_inequality(5, seed=3)
        big = check_power_inequality(10, seed=3)
        assert big.worst_residual >= small.worst_residual


class TestReport:
    def test_text_fields(self):
        r = VerifyReport("power", 10, 0, 1e-9, 1e-7, 42)
        text = r.to_text()
        assert "suite: power" in text
        assert "failures: 0" in text
        assert "seed: 42" in text
        assert r.passed
        assert not r.warning

    def test_warning_flag(self):
        r = VerifyReport("power", 10, 0, 0.9e-7, 1e-7, 42)
        assert r.passed and r.warning

    def test_failed_report_witness_roundtrip(self):
        r = VerifyReport("power", 1, 1, 2e-7, 1e-7, 42,
                         witness={"matrix": "dim 1\n0+0i\n", "power": 2})
        line = [ln for ln in r.to_text().splitlines()
                if ln.startswith("witness:")][0]
        data = json.loads(line[len("witness: "):])
        M = parse_matrix(data["matrix"])
        assert M.shape == (1, 1)
        assert not r.passed

    def test_witness_names_its_trial(self, monkeypatch):
        # the 4th unit vector drawn, in local-ineq trial 3, is scaled by 10
        draw = verify.random_unit_vector
        calls = []

        def scaled_fourth(rng, dim):
            calls.append(dim)
            x = draw(rng, dim)
            return 10.0 * x if len(calls) == 4 else x

        monkeypatch.setattr(verify, "random_unit_vector", scaled_fourth)
        r = check_local_inequality(6, seed=13)
        assert r.failures == 1
        assert r.witness["trial"] == 3
        T = normalize_radius(random_matrix(_trial_rng(13, "local-ineq", 3)))
        assert np.array_equal(T, parse_matrix(r.witness["matrix"]))

    def test_one_command_replays_the_witness_trial(self, monkeypatch, capsys):
        # as above, but then trial 3 alone, where its vector is the 1st drawn
        draw = verify.random_unit_vector
        calls = []

        def scaled(nth):
            def draw_scaled(rng, dim):
                calls.append(dim)
                x = draw(rng, dim)
                return 10.0 * x if len(calls) == nth else x
            return draw_scaled

        monkeypatch.setattr(verify, "random_unit_vector", scaled(4))
        witness = check_local_inequality(6, seed=13).witness
        calls.clear()
        monkeypatch.setattr(verify, "random_unit_vector", scaled(1))
        assert main(["verify", "--suite", "local-ineq", "--seed", "13",
                     "--trial", "3", "--json"]) == 1
        [report] = json.loads(capsys.readouterr().out)
        assert (report["trials"], report["failures"]) == (1, 1)
        assert report["witness"] == witness
        assert witness["trial"] == 3

    def test_json_dict(self):
        r = check_props52(5, seed=9)
        d = r.to_json_dict()
        assert d["suite"] == "props52"
        assert d["failures"] == 0
        json.dumps(d)  # must be serializable


class TestExtremalSearch:
    def test_identity_function_finds_radius_one(self):
        f = Polynomial((0, 1))
        best_w, T = extremal_search(f, 2, 60, seed=1)
        assert best_w == pytest.approx(1.0, abs=1e-6)
        assert T.shape == (2, 2)

    def test_squaring_stays_bounded(self):
        f = Blaschke(BlaschkeProduct(1.0, (0j, 0j)))
        best_w, _ = extremal_search(f, 2, 120, seed=2)
        assert best_w <= 1.0 + 1e-7

    def test_sharp_example_with_injected_candidate(self):
        best_w, T = extremal_search(
            SHARP, 2, 40, seed=3,
            initial_candidates=(SHIFT2,))
        assert best_w >= 1.25 - 1e-6
        assert best_w <= 1.25 + 1e-6

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            extremal_search(Polynomial((0, 1)), 2, 0)

    def test_stalled_search_restarts(self, monkeypatch):
        # the zero candidate has no radius to normalize by, so its objective
        # is None and the search starts at random. With f = z every w(f(T))
        # is 1, no step improves, the step halves every 20 iterations and
        # drops below 1e-4 at iteration 240, where the search restarts: 1 +
        # 1 + 2 x 260 + 1 normalizations, the first of which raises
        outcomes = []
        normalize = verify.normalize_radius

        def counted(T):
            try:
                Tn = normalize(T)
            except ValueError:
                outcomes.append("raised")
                raise
            outcomes.append("normalized")
            return Tn

        monkeypatch.setattr(verify, "normalize_radius", counted)
        run = lambda: extremal_search(Polynomial((0, 1)), 2, 260, seed=1,
                                      initial_candidates=(np.zeros((2, 2)),))
        best_w, T = run()
        assert best_w == 1.0
        assert outcomes == ["raised"] + ["normalized"] * 522
        again_w, again_T = run()
        assert again_w == best_w and again_T.tobytes() == T.tobytes()

    @pytest.mark.parametrize("dim", [0, -1])
    def test_rejects_dimension_below_one(self, dim):
        # dim 0 looped for ever: every objective of an empty matrix failed
        with pytest.raises(ValueError, match="dim and iterations must be >= 1"):
            extremal_search(Polynomial((0, 1)), dim, 10)

    def test_deterministic(self):
        f = Polynomial((0, 0.5, 0.5))
        a = extremal_search(f, 2, 50, seed=4)
        b = extremal_search(f, 2, 50, seed=4)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])
