"""Why the stream model is part of the contract.

The adversarial-turnstile generator inserts a block of ids and then deletes
all but one of them, so a planted window ends up holding exactly one live
id.  A sketch built for insertion-only streams has no way to process the
deletions: feeding it the arrivals sign-blind leaves every cancelled id in
its sample, and the window estimate lands orders of magnitude high.  The
additive turnstile sketch processes the same deletions natively and comes
back with the right answer, at the price of additive (not relative) error.
"""

from subsetsketch import IntervalSystem, L0UniversalSketch, LpSetSketch, gen_stream

n = 1024
stream = gen_stream("adversarial-turnstile", {"n": n}, seed=3)
lo, hi = stream.meta["interval"]
window = range(lo, hi + 1)
print(f"planted window [{lo}, {hi}]: one id survives, "
      f"{(stream.values < 0).sum()} deletions cancel the rest\n")

signblind = L0UniversalSketch(IntervalSystem(n, n // 2), epsilon=0.5, seed=11)
signblind.update_many(stream.coords)  # deletions look like re-insertions here
print(f"insertion-only sketch, deletions dropped: {signblind.query(window)}")

turnstile = LpSetSketch(n, p=1.0, epsilon=0.2, seed=11)
turnstile.update_many(stream.coords, stream.values)
band = 0.2 * stream.meta["survivors"]  # promised error: 0.2 * whole-vector mass
print(f"turnstile sketch on the same stream:      {turnstile.query(window):.3f}")
print(f"truth:                                    1  (additive band: +/-{band:.1f})")

print("\nthe command-line front end refuses the first pairing outright:")
print("  subsetsketch build --sketch l0 --model turnstile ...  -> exit 3")
