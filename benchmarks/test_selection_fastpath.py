"""Selection fast path: counter-based, deterministic guarantees.

Three properties of the compile-time dispatch tables (§3's per-kernel
operating subranges) are pinned here without any wall-clock timing:

* an in-range ``select()`` on a baked program performs **zero** model
  evaluations and agrees with the exact model-argmin;
* forced and out-of-range selections take the exact fallback path and
  match an unbaked program bit-for-bit;
* over a repeated-dispatch workload (the paper's scenario — the same
  compiled program launched for many different inputs), baking cuts
  runtime model evaluations by well over 5x.
"""

import pytest

from repro import Filter, StreamProgram, api

SDOT = """
def sdot(n):
    acc = 0.0
    for i in range(n):
        acc = acc + pop() * pop()
    push(acc)
"""

N_RANGE = (1 << 10, 4 << 20)


def _program():
    return StreamProgram(Filter(SDOT, pop="2*n", push=1),
                        params=["n", "r"], input_size="2*n*r",
                        input_ranges={"n": N_RANGE})


@pytest.fixture()
def baked():
    program = api.compile(_program())
    assert program.bake_decision_tables(extra_params={"r": 1}) > 0
    return program


@pytest.fixture()
def unbaked():
    return api.compile(_program())


#: In-range query sizes: bake-grid points and off-grid points between them.
IN_RANGE = [1 << 10, 3000, 1 << 14, 123_457, 1 << 20, 3_999_999, 4 << 20]


def test_table_hit_zero_model_evals(baked, unbaked):
    before = baked.stats.snapshot()
    for n in IN_RANGE:
        params = {"n": n, "r": 1}
        winners = [p.strategy for p in baked.select(params)]
        exact = [p.strategy for p in unbaked.select(params)]
        assert winners == exact, f"table winner diverges at n={n}"
    delta = baked.stats.since(before)
    assert delta.model_evals == 0
    assert delta.cache_hits == 0          # not even memoized costs needed
    assert delta.table_hits == delta.select_calls == len(IN_RANGE)
    assert delta.table_fallbacks == 0


def test_forced_selection_is_exact_fallback(baked, unbaked):
    params = {"n": 1 << 16, "r": 1}
    strategies = [p.strategy for p in unbaked.segments[0].plans]
    for strategy in strategies:
        force = {baked.segments[0].name: strategy}
        a = baked.select(params, force=force)
        b = unbaked.select(params, force=force)
        assert [p.strategy for p in a] == [p.strategy for p in b]
    assert baked.stats.forced_selections == len(strategies)


def test_out_of_range_is_exact_fallback(baked, unbaked):
    before = baked.stats.snapshot()
    for n in [N_RANGE[0] // 2, 8 << 20]:
        params = {"n": n, "r": 1}
        winners = [p.strategy for p in baked.select(params)]
        exact = [p.strategy for p in unbaked.select(params)]
        assert winners == exact
    delta = baked.stats.since(before)
    assert delta.table_hits == 0
    assert delta.table_fallbacks == delta.select_calls == 2
    assert delta.runtime_evals > 0        # the fallback really ran the model


def test_unbaked_extras_fall_back(baked, unbaked):
    """A scalar param differing from the baked extras disables the table."""
    params = {"n": 1 << 16, "r": 2}
    winners = [p.strategy for p in baked.select(params)]
    exact = [p.strategy for p in unbaked.select(params)]
    assert winners == exact
    assert baked.stats.table_fallbacks == 1
    assert baked.stats.table_hits == 0


def test_repeated_dispatch_reduces_evals_5x(baked, unbaked):
    """The paper's workload: one compiled program, many inputs."""
    sizes = range(N_RANGE[0], N_RANGE[0] + 400)    # 400 distinct inputs
    for n in sizes:
        params = {"n": n, "r": 1}
        baked.select(params)
        unbaked.select(params)
    # Total for the baked program includes the one-off bake itself.
    baked_total = baked.stats.model_evals
    unbaked_total = unbaked.stats.model_evals
    assert baked.stats.runtime_evals == 0
    assert unbaked_total >= 5 * baked_total, (
        f"expected >=5x fewer evals, got {unbaked_total} vs {baked_total}")


def test_predicted_seconds_matches_unbaked(baked, unbaked):
    """End-to-end prediction equality on and off the bake grid."""
    for n in IN_RANGE:
        params = {"n": n, "r": 1}
        assert (baked.predicted_seconds(params)
                == unbaked.predicted_seconds(params))
