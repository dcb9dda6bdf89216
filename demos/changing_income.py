"""Valuing income streams that change each period: straight-line, constant
ratio, accumulation-path, and the safe-rate declining stream.

Run from the repo root:  python3 demos/changing_income.py
"""

import propval as pv

i = 0.10

# Any first-order recurrence y_k = m*y_(k-1) + b generates a stream, and
# the present value has one closed form for every m and discount rate i.
for m, b, c, label in (
    (1.00, 0.0, 50.0, "level 50s"),
    (1.00, 5.0, 45.0, "rising 50, 55, 60, ..."),
    (1.05, 0.0, 50.0 / 1.05, "growing 5% from 50"),
    (1.10, 1.0, 0.0, "growth matching the discount rate"),
):
    spec = pv.RecurrenceSpec(multiplier=m, increment=b, seed=c)
    terms = pv.recurrence_terms(spec, 5)
    value = pv.value_recurrence_stream(spec, i, 5)
    shown = ", ".join(f"{t:.2f}" for t in terms)
    print(f"{label:<36} terms {shown:<38} V = {value:.4f}")

# Straight-line change, the appraisal workhorse. Negative h rises.
print(f"\n100 declining by 10 for 4 periods: {pv.straight_line_annuity_value(100, 10, i, 4):.4f}")
print(f"100 rising by 10 for 4 periods:    {pv.straight_line_annuity_value(100, -10, i, 4):.4f}")

# Constant-ratio growth, normalized to a first income of one.
for g in (0.0, 0.05, 0.10):
    print(f"unit income growing at {g:.0%} for 10 periods: "
          f"{pv.constant_ratio_annuity_value(g, i, 10):.6f}")

# The stream of accumulation factors s_1, s_2, ... prices the income-change
# premise behind the J factor.
print(f"\nvalue of s_1..s_10 at 10%: {pv.accumulation_stream_value(i, 10):.6f}")
print(f"J factor at 10%, 10 periods: {pv.ellwood_j_factor(i, 10):.6f}")

# The safe-rate declining stream: income starts at 100 and sheds the
# compounding interest losses of recovering capital at 5% instead of 10%.
value = pv.hoskold_stream_value(100, i, 0.05, 10)
stream = pv.hoskold_income_stream(100, i, 0.05, 10)
print(f"\nsafe-rate stream value: {value:.4f}  (= 100 / (0.10 + SFF(10, 0.05)))")
print("incomes:", ", ".join(f"{x:.2f}" for x in stream))
drops = [a - b for a, b in zip(stream, stream[1:])]
print("drops:  ", ", ".join(f"{d:.3f}" for d in drops), " (each 1.05x the last)")

# Discounting the stream by brute force lands exactly on the closed form.
check = sum(x / (1 + i) ** k for k, x in enumerate(stream, start=1))
print(f"brute-force discounted sum: {check:.10f}")
