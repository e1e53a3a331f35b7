"""The solver formulas write their intermediates into arrays the call
allocated.  Each such kernel must equal its formula written out as one
expression, bit for bit; no write may reach an array a caller handed in
or will see again; and a 20001-point call must hold fewer grid-sized
arrays at its peak than the written-out expressions do."""

import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tailbalance import (
    CoefficientPair,
    DegenerateAlpha,
    LinearAbility,
    Prior,
    ResidualReport,
    alt_decomposition_solver,
    cdf_given_A,
    closed_form_linear,
    closed_form_linear_odds,
    posterior_tail,
    residual_check,
    solve_affine_pair,
    solve_balanced,
    solve_odds,
)
from tailbalance import solvers
from tailbalance.alpha import EQUALITY_TOL, check_grid
from tailbalance.signals import _cdf_on_support

THETAS = st.one_of(st.sampled_from([1e-300, 0.5, 1.0 - 1e-16]), st.floats(1e-6, 1.0 - 1e-6))
ABILITIES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1.0]), st.floats(0.0, 1.0))
POINT = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.5, 1.5))
#: 0-d, 1-d and 2-d inputs
POINTS = hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5),
                    elements=POINT)
STATE_SIGN = np.array([[1.0], [-1.0]])
LARGE = 20001


# The kernels written out as one expression each, as they read before
# they were rewritten in place.

def cdf_formula(a, t, sign):
    return np.divide((t + 1.0) * (sign * (a * t - a) + 2.0), 4.0)


def clamp_formula(t):
    return np.minimum(np.maximum(t, -1.0), 1.0)


def linear_formula(theta, a, t):
    t = np.asarray(t, dtype=float)
    return theta + (t + 1.0) * (1.0 - theta) * a / 2.0


def uniform_formula(t):
    return (clamp_formula(t) + 1.0) / 2.0


def closed_odds_formula(a, lam, t):
    t = clamp_formula(t)
    out = cdf_formula(a, t, 1.0)
    if lam != 1.0:
        out = out * (a / (a + (lam - 1.0) * (a * a / 4.0) * (1.0 - t * t)))
    return out


def den_formula(theta, at, an):
    if theta <= 0.5:
        return theta * theta * (at + (an - 1.0)) + (1.0 - 2.0 * theta) * at * an
    return (1.0 - theta) ** 2 * at * an - theta * theta * (1.0 - at) * (1.0 - an)


def odds_formula(theta, a, t):
    boundary = float(linear_formula(theta, a, -1.0))
    at, an = linear_formula(theta, a, t), linear_formula(theta, a, -np.asarray(t))
    return theta * (at - boundary) * (1.0 - an) / den_formula(theta, at, an)


def residual_formula(h_pos, h_neg, a_vals, lam):
    num = 1.0 - h_pos
    den = num + lam * h_neg
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    ratio[(den == 0.0) & (num == 0.0)] = 1.0
    target = a_vals.copy()
    target[-1] = 1.0
    return np.abs(ratio - target)


def equal(got, expected):
    """Bit-for-bit equality of values and shape, a NaN matching a NaN."""
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and np.array_equal(got, expected, equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(a=ABILITIES, t=hnp.arrays(float, st.integers(0, 12),
                                 elements=st.floats(-1.0, 1.0)),
       per_history=st.booleans())
def test_cdf_kernel_fills_both_state_rows_of_a_strided_buffer(a, t, per_history):
    # the jury's call: a sign column, an ability per history or one for
    # all, and the rows of a wider buffer as out
    m = len(t)
    ability = np.full(m, a) if per_history else a
    buffer = np.full((2, 2 * m), 7.0)
    out = buffer[:, :m]
    got = _cdf_on_support(ability, t, STATE_SIGN, out)
    assert got is out
    assert equal(got, cdf_formula(ability, t, STATE_SIGN))
    assert (buffer[:, m:] == 7.0).all()
    assert equal(_cdf_on_support(ability, t, STATE_SIGN), cdf_formula(ability, t, STATE_SIGN))


@settings(max_examples=200, deadline=None)
@given(theta=THETAS, a=ABILITIES, t=POINTS)
def test_linear_alpha_is_its_formula(theta, a, t):
    got = LinearAbility(theta, a)(t)
    assert equal(got, linear_formula(theta, a, t))
    assert type(got) is (float if t.ndim == 0 else np.ndarray)


@settings(max_examples=150, deadline=None)
@given(theta=THETAS, a=ABILITIES, t=POINTS)
def test_closed_form_evaluator_is_its_formula(theta, a, t):
    prior = Prior(theta)
    solved = closed_form_linear_odds(a, prior, allow_uniform_limit=True, grid_size=101)
    expected = uniform_formula(t) if a == 0.0 else closed_odds_formula(a, prior.odds_lambda, t)
    assert equal(solved(t), expected)


@settings(max_examples=150, deadline=None)
@given(theta=THETAS, a=ABILITIES, t=POINTS)
def test_solve_odds_is_its_formula_in_both_den_branches(theta, a, t):
    """The evaluator, max_residual and is_valid_cdf, and the refusal, as
    the written-out odds formula and residual pass give them, at theta on
    either side of 1/2."""
    prior, n = Prior(theta), 101
    grid = np.array([float(Fraction(2 * k - n + 1, n - 1)) for k in range(n)])  # check_grid(n)
    a_pos, a_neg = linear_formula(theta, a, grid), linear_formula(theta, a, -grid)
    band = EQUALITY_TOL * (theta * theta)
    degenerate = (np.abs(den_formula(theta, a_pos, a_neg)) <= band).any()
    flat = np.abs(a_pos - theta).max() <= EQUALITY_TOL
    try:
        solved = solve_odds(LinearAbility(theta, a), prior, allow_uniform_limit=True,
                            grid_size=n)
    except DegenerateAlpha:
        assert degenerate and not flat
        return
    assert not degenerate or flat
    h = uniform_formula if degenerate else (lambda x: odds_formula(theta, a, x))
    assert equal(solved(t), h(clamp_formula(t)))  # the evaluator reads t clamped
    residual = residual_formula(h(grid), h(-grid), a_pos, prior.odds_lambda)
    assert equal(solved.max_residual, residual[int(residual.argmax())])
    report = residual_check(solved, LinearAbility(theta, a), prior, n)
    for got, expected in ((report.t, grid), (report.h, h(grid)), (report.alpha, a_pos),
                          (report.residual, residual)):
        assert equal(got, expected)
    assert equal(report.max_residual, solved.max_residual)


def memoised(fn):
    """``fn`` answering every input with one writable array of its own,
    the same object on every call, as a caching callable would."""
    memo = {}

    def call(t):
        t = np.asarray(t, dtype=float)
        key = (t.shape, t.tobytes())
        if key not in memo:
            memo[key] = np.array(fn(t), dtype=float)
        return memo[key]

    call.memo = memo
    call.fresh = fn
    return call


def untouched(*callables):
    """Whether every memoised array still holds what ``fn`` gives."""
    return all(equal(values, np.asarray(c.fresh(np.frombuffer(key[1]).reshape(key[0])),
                                        dtype=float))
               for c in callables for key, values in c.memo.items())


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("n", [101, LARGE])
def test_in_place_writes_never_reach_a_callers_array(theta, n):
    prior = Prior(theta)
    h = memoised(closed_form_linear_odds(0.6, prior))
    alpha = memoised(LinearAbility(theta, 0.6))
    points = np.linspace(-1.0, 0.9, 39).reshape(3, 13)

    def run():
        check = residual_check(h, alpha, prior, n)
        solved = solve_odds(alpha, prior, grid_size=n)
        return check, solved, posterior_tail(h, points, prior)

    first = run()
    assert untouched(h, alpha)
    second = run()
    assert untouched(h, alpha)
    for check in (first[0], second[0]):
        assert check.max_residual < 1e-12
    for name in ("t", "h", "alpha", "residual", "max_residual", "argmax_t"):
        assert equal(getattr(first[0], name), getattr(second[0], name)), name
    assert equal(first[1](points), second[1](points))
    assert first[1].max_residual == second[1].max_residual
    assert first[1].is_valid_cdf and second[1].is_valid_cdf
    assert equal(first[2], second[2])


def peak_grids(call):
    """The most bytes ``call`` holds at once under tracemalloc, in
    LARGE-point float arrays."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / (LARGE * 8)
    finally:
        if not tracing:
            tracemalloc.stop()


#: The affine pair of the benchmark's sweep, H(-t) = gamma(t) + c*H(t)
#: built from the CDF it must return, at a = 0.6 and c = 0.4.
SWEEP_PAIR = CoefficientPair(
    gamma=lambda t: np.asarray(cdf_given_A(0.6, -np.asarray(t)))
    - 0.4 * np.asarray(cdf_given_A(0.6, t)),
    delta=lambda t: np.full(np.shape(t), 0.4))


@pytest.mark.parametrize("solve, bound", [
    (lambda: closed_form_linear_odds(0.7, Prior(0.3), grid_size=LARGE), 1.5),
    (lambda: closed_form_linear(0.6, grid_size=LARGE), 1.5),
    (lambda: alt_decomposition_solver(0.6, grid_size=LARGE), 1.5),
    (lambda: solve_odds(LinearAbility(0.3, 0.6), Prior(0.3), grid_size=LARGE), 1.5),
    (lambda: solve_odds(LinearAbility(0.8, 0.6), Prior(0.8), grid_size=LARGE), 1.5),
    (lambda: solve_balanced(LinearAbility(0.5, 0.6), grid_size=LARGE), 1.5),
    (lambda: solve_affine_pair(SWEEP_PAIR, grid_size=LARGE), 7.5),
    (lambda h=closed_form_linear(0.6): residual_check(h, LinearAbility(0.5, 0.6), Prior(0.5),
                                                      LARGE), 4.5),
], ids=["closed-form-odds", "closed-form-balanced", "decomposition", "odds-theta-below-half",
        "odds-theta-above-half", "balanced", "affine-pair", "residual-check"])
def test_large_grid_call_holds_few_grid_arrays(solve, bound):
    """After a first call has made the thread's scratch, a 20001-point
    tail-balance solver call allocates one grid-sized array, alpha's
    values, and writes every intermediate into the scratch; H and alpha
    on -grid are views of their values on the grid, reversed.
    ``residual_check`` allocates its four report arrays (t, H, alpha and
    the residual) and no more.  ``solve_affine_pair`` writes
    one-expression formulas and peaks at about 7.0."""
    solve()  # builds the cached grid and the thread's scratch
    assert peak_grids(solve) < bound


def received(n):
    """Every array a caller receives from the tail-balance solvers and
    ``residual_check`` on the n-point grid, and their scalar results."""
    prior, alpha = Prior(0.3), LinearAbility(0.3, 0.6)
    grid = check_grid(n)
    solved = [solve_odds(alpha, prior, grid_size=n),
              solve_odds(LinearAbility(0.8, 0.6), Prior(0.8), grid_size=n),
              solve_balanced(LinearAbility(0.5, 0.6), grid_size=n),
              closed_form_linear_odds(0.6, prior, grid_size=n),
              closed_form_linear(0.6, grid_size=n),
              closed_form_linear_odds(0.0, prior, allow_uniform_limit=True, grid_size=n),
              alt_decomposition_solver(0.6, grid_size=n)]
    report = residual_check(solved[3], alpha, prior, n)
    arrays = [s(grid) for s in solved] + [s.evaluator(grid) for s in solved]
    arrays += [report.t, report.h, report.alpha, report.residual]
    summary = [(s.max_residual, s.is_valid_cdf) for s in solved]
    return arrays, summary + [(report.max_residual, report.argmax_t)]


@pytest.mark.parametrize("n", [3, 1001, LARGE])
def test_no_received_array_is_scratch(n):
    """No array a caller receives shares memory with the thread's
    scratch, and writing into every one of them changes no later result."""
    arrays, summary = received(n)
    for array in arrays:
        for block in solvers._scratch(n):
            assert not np.shares_memory(array, block)
    kept = [array.copy() for array in arrays]
    for array in arrays:
        array[...] = np.nan
    again, again_summary = received(n)
    assert again_summary == summary
    assert all(equal(x, y) for x, y in zip(again, kept))


def test_scratch_is_kept_within_its_byte_cap():
    """The scratch of a grid whose 26 bytes a point exceed
    ``_SCRATCH_BYTES`` is not kept after its call; the largest grid that
    fits keeps its own and drops older sizes, as their sum would not fit."""
    assert solvers._SCRATCH_BYTES == 4 * 2**20
    fits = solvers._SCRATCH_BYTES // 26
    fits -= 1 - fits % 2  # odd
    closed_form_linear_odds(0.6, Prior(0.3), grid_size=LARGE)
    kept = solvers._scratch_blocks.by_size
    assert LARGE in kept
    closed_form_linear_odds(0.6, Prior(0.3), grid_size=fits + 2)
    assert fits + 2 not in kept and LARGE in kept
    solve_odds(LinearAbility(0.3, 0.6), Prior(0.3), grid_size=fits)
    assert list(kept) == [fits]
    assert sum(map(solvers._nbytes, kept.values())) <= solvers._SCRATCH_BYTES
    closed_form_linear_odds(0.6, Prior(0.3), grid_size=LARGE)
    assert list(kept) == [LARGE]


def outcomes(cases):
    return {name: outcome(call) for name, call in cases.items()}


def outcome(call):
    """A call's values, bit for bit, as bytes: a SolvedCdf's evaluator on
    its grid, max_residual and is_valid_cdf, or a report's arrays."""
    result, n = call()
    if isinstance(result, ResidualReport):
        return tuple(np.asarray(getattr(result, name)).tobytes()
                     for name in ("h", "alpha", "residual", "max_residual"))
    return (result(check_grid(n)).tobytes(), result.max_residual, result.is_valid_cdf)


def thread_cases(n):
    h = closed_form_linear_odds(0.6, Prior(0.8))
    return {
        f"odds-{n}": lambda: (solve_odds(LinearAbility(0.3, 0.6), Prior(0.3), grid_size=n), n),
        f"odds-high-{n}": lambda: (solve_odds(LinearAbility(0.8, 0.7), Prior(0.8),
                                              grid_size=n), n),
        f"closed-{n}": lambda: (closed_form_linear_odds(0.7, Prior(0.2), grid_size=n), n),
        f"check-{n}": lambda: (residual_check(h, LinearAbility(0.8, 0.6), Prior(0.8), n), n),
    }


@pytest.mark.parametrize("sizes", [(LARGE,) * 4, (LARGE, 1001, 101, LARGE)],
                         ids=["same-size", "mixed-sizes"])
def test_threads_solving_at_once_match_one_thread(sizes):
    """Threads that solve and check at the same time, on one grid size or
    on several, give the single-thread results bit for bit: each thread
    writes its own scratch."""
    cases = [thread_cases(n) for n in sizes]
    expected = [outcomes(c) for c in cases]
    start = threading.Barrier(len(sizes))

    def work(k):
        start.wait()
        return [outcomes(cases[k]) for _ in range(8)]

    with ThreadPoolExecutor(len(sizes)) as pool:
        results = list(pool.map(work, range(len(sizes))))
    for k, runs in enumerate(results):
        for run in runs:
            assert run == expected[k]


#: Minor faults per 20001-point call after warm-up, printed by a fresh
#: interpreter: this process's earlier large frees have raised glibc's
#: trim threshold, so that it might not hand pages back after a call.
FAULTS_PER_CALL = """
import resource
from tailbalance import LinearAbility, Prior, closed_form_linear_odds, solve_balanced, solve_odds
LARGE = 20001
large = [lambda: solve_odds(LinearAbility(0.3, 0.6), Prior(0.3), grid_size=LARGE),
         lambda: solve_odds(LinearAbility(0.8, 0.6), Prior(0.8), grid_size=LARGE),
         lambda: solve_balanced(LinearAbility(0.5, 0.6), grid_size=LARGE),
         lambda: closed_form_linear_odds(0.7, Prior(0.3), grid_size=LARGE)]
small = [lambda: solve_odds(LinearAbility(0.4, 0.5), Prior(0.4)),
         lambda: closed_form_linear_odds(0.5, Prior(0.6))]

def cycle():
    for k, call in enumerate(large):
        call()
        small[k % 2]()

for _ in range(3):
    cycle()
who = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)
before = resource.getrusage(who).ru_minflt
rounds = 25
for _ in range(rounds):
    cycle()
print((resource.getrusage(who).ru_minflt - before) / (rounds * len(large)))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor faults are read from getrusage on Linux")
def test_repeated_large_grid_calls_reuse_mapped_pages():
    """After warm-up, 20001-point calls of solve_odds, solve_balanced and
    closed_form_linear_odds, each followed by a 1001-point call, fault in
    at most one page a 20001-point call: the scratch stays mapped, where
    arrays freed after every call were handed back to the OS and faulted
    in again on the next (about 85 faults a call)."""
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", FAULTS_PER_CALL], env=env,
                         capture_output=True, text=True, check=True)
    assert float(run.stdout) <= 1.0
