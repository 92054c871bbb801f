"""How many distinct items landed in each window?

A stream of item ids arrives and we want, after the fact, the number of
distinct ids inside any sufficiently long interval of the id space: one
sketch, every window answered.  This script builds the support sketch over
all intervals of length >= 2500 in a universe of 10^4, feeds a skewed
stream, then compares a handful of window queries against the truth.
"""


from subsetsketch import IntervalSystem, L0UniversalSketch, gen_stream, replay

n = 10_000
system = IntervalSystem(n, min_len=2500)
sketch = L0UniversalSketch(system, epsilon=0.1, seed=7)

stream = gen_stream("zipf", {"n": n, "length": 50_000, "theta": 1.1}, seed=7)
sketch.update_many(stream.coords)  # one batch

support = set(replay(stream).values)
print(f"stream: {len(stream)} arrivals, {len(support)} distinct ids")
print(f"sketch keeps {sketch.ladder_stored()} ids across its sampling levels\n")

print(f"{'window':>14} {'truth':>6} {'estimate':>9} {'coarse':>7}")
for lo, hi in [(1, 2500), (2001, 6000), (4000, 9999), (7500, 10_000)]:
    window = range(lo, hi + 1)
    truth = sum(lo <= c <= hi for c in support)
    est = sketch.query(window)
    coarse = sketch.coarse_query(window)
    print(f"[{lo:>5}, {hi:>5}] {truth:>6} {est:>9} {coarse:>7}")

print("\nthe coarse column is the cheap power-of-two bracket the sketch")
print("uses internally to pick a sampling rate before estimating")
