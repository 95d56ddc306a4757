"""Benchmark: the Theorem 1 corollary — ring beats the n² barrier
while k = O(√n)."""


def test_ring_vs_barrier_crossover(run_and_show, scale):
    """Advantage over the barrier is big at small k and decays with k;
    any crossover sits at or beyond Θ(√n), never before."""
    result = run_and_show("crossover")
    advantages = result.raw["advantages"]
    sqrt_n = result.raw["sqrt_n"]
    ks = result.raw["ks"]

    # the o(n²) claim: at k = 1 the ring crushes the barrier
    assert advantages[0] > 3, (
        f"ring only {advantages[0]:.1f}x faster than the n² barrier at k=1"
    )

    if scale == "smoke":
        return  # too few k points for decay structure

    # the advantage decays as k grows (compare the extremes)
    assert advantages[-1] < advantages[0] / 2, (
        "ring advantage did not decay with k"
    )

    # the paper's corollary: the guarantee holds for all k = o(√n), so
    # the advantage must never be lost below √n (modulo small constants)
    crossover = result.raw["crossover_k"]
    if crossover is not None:
        assert crossover >= sqrt_n / 4, (
            f"advantage lost already at k={crossover} < √n/4"
        )
    # ring times increase with k (weak monotonicity across extremes)
    ring = result.raw["ring_median_times"]
    assert ring[-1] > ring[0]
    del ks
