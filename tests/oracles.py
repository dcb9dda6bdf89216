"""Brute-force oracles used across the test suite.

These deliberately avoid the library's closed forms and code paths: factors
come from repeated multiplication, present values from term-by-term
discounted sums, and root counts from Sturm's theorem in exact rational
arithmetic. Keep them dumb.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction


def compound_oracle(rate: float, n: int) -> float:
    """(1+r)^n by repeated multiplication."""
    factor = 1.0
    for _ in range(n):
        factor *= 1.0 + rate
    return factor


def annuity_sum(rate: float, n: int) -> float:
    """Present value of n unit payments, term by term."""
    total, factor = 0.0, 1.0
    for _ in range(n):
        factor /= 1.0 + rate
        total += factor
    return total


def accumulation_sum(rate: float, n: int) -> float:
    """Future value of n unit deposits, term by term."""
    total, power = 0.0, 1.0
    for _ in range(n):
        total += power
        power *= 1.0 + rate
    return total


def stream_pv(values, rate: float) -> float:
    """Discounted sum of values landing at periods 1, 2, ..., len(values)."""
    total, factor = 0.0, 1.0
    for value in values:
        factor /= 1.0 + rate
        total += value * factor
    return total


def npv_oracle(cashflows, rate: float) -> float:
    """Discounted sum with cashflows[0] at time zero, dividing a running
    discount factor each period: a float loop independent of npv, which
    evaluates the sum by Horner's rule in w = 1/(1+r)."""
    total, factor = float(cashflows[0]), 1.0
    for flow in cashflows[1:]:
        factor /= 1.0 + rate
        total += flow * factor
    return total


def recurrence_stream(multiplier: float, increment: float, seed: float, n: int) -> list[float]:
    """y_1..y_n by iterating y_k = m*y_(k-1) + b from y_0 = c."""
    terms, y = [], seed
    for _ in range(n):
        y = multiplier * y + increment
        terms.append(y)
    return terms


def _horner(coeffs, x):
    value = 0
    for c in coeffs:
        value = value * x + c
    return value


def _remainder(num, den):
    """Remainder of num / den, both highest power first, den[0] nonzero."""
    while len(num) >= len(den):
        q = num[0] / den[0]
        num = [a - q * b for a, b in zip(num[1:], den[1:])] + num[len(den):]
        while num and num[0] == 0:
            num = num[1:]
    return num


def _variations(chain, x) -> int:
    signs = [v > 0 for v in (_horner(p, x) for p in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_root_count(cashflows, lo: float, hi: float) -> int:
    """Number of distinct IRRs in (lo, hi], by Sturm's theorem in exact rationals.

    Independent of the IRR implementation: the IRRs are the real roots of
    P(x) = sum C_t x^(n-t) in x = 1 + r. The chain P, P', then each negated
    remainder is built over Fraction, and the count is V(a) - V(b), with V
    the sign changes along the chain (zeros skipped) at a = 1 + Fraction(lo)
    and b = 1 + Fraction(hi). It counts distinct roots, so a tangent root
    counts once. Leading zero flows lower the degree; trailing zero flows
    are roots at x = 0, which is r = -1 and outside every admissible
    interval. The rationals grow fast with the degree: meant for degree
    up to about 10.
    """
    coeffs = [Fraction(c) for c in cashflows]
    while coeffs[0] == 0:
        coeffs.pop(0)
    while coeffs[-1] == 0:
        coeffs.pop()
    n = len(coeffs) - 1
    chain = [coeffs, [(n - k) * c for k, c in enumerate(coeffs[:-1])]]
    while len(chain[-1]) > 1:
        rest = _remainder(chain[-2], chain[-1])
        if not rest:
            break
        chain.append([-c for c in rest])
    return _variations(chain, 1 + Fraction(lo)) - _variations(chain, 1 + Fraction(hi))


def relclose(actual: float, expected: float, rel: float, abs_floor: float = 1e-9) -> bool:
    """|actual - expected| within rel of |expected|, with a near-zero floor."""
    return abs(actual - expected) <= max(rel * abs(expected), abs_floor)


def _annuity_exact(rate: Fraction, n: int) -> Fraction:
    if rate == 0:
        return Fraction(n)
    growth = 1 + rate
    return (1 - growth**-n) / rate


def ellwood_rate_exact(loan_to_value, annual_rate, months: int, hold: int, equity_yield, asset_change):
    """Mortgage-equity cap rate R and its scale S, in exact rationals from
    the same doubles.

    At V = I/R the equity's NPV at Y is zero,
    -(1-M)V + sum (I - M Rm V) v^t + ((1+change)V - M bal V) v^H = 0 over
    t = 1..H, so R = M Rm + [(1-M) - (1+change-M bal) v^H] / a(H, Y).
    Rm = 12 / a(months, i) and bal = a(months - 12H, i) / a(months, i) are
    those of the monthly loan at i = annual_rate / 12. The scale is
    S = (1-M)|Y| + M Rm + (|change| + M P) SFF(H, Y), with P = 1 - bal and
    SFF = v^H / a(H, Y).
    """
    m, y, change = Fraction(loan_to_value), Fraction(equity_yield), Fraction(asset_change)
    monthly = Fraction(annual_rate) / 12
    loan_annuity = _annuity_exact(monthly, months)
    r_m, bal = 12 / loan_annuity, _annuity_exact(monthly, months - 12 * hold) / loan_annuity
    hold_annuity, v_h = _annuity_exact(y, hold), (1 + y) ** -hold
    rate = m * r_m + ((1 - m) - (1 + change - m * bal) * v_h) / hold_annuity
    scale = (1 - m) * abs(y) + m * r_m + (abs(change) + m * (1 - bal)) * v_h / hold_annuity
    return rate, scale


def ellwood_j_rate_exact(
    loan_to_value, annual_rate, months: int, hold: int, equity_yield, asset_change, income_change
):
    """Changing-income cap rate R_J = R / (1 + delta J) and its scale
    S / |1 + delta J|, in exact rationals from the same doubles.

    R and S are those of ellwood_rate_exact, and J over the hold H at the
    equity yield Y is (H / (1 - v^H) - 1/Y) / s(H, Y), or (H + 1) / (2H) at
    Y = 0. A zero 1 + delta J, where no rate exists, raises ZeroDivisionError.
    """
    rate, scale = ellwood_rate_exact(loan_to_value, annual_rate, months, hold, equity_yield, asset_change)
    y = Fraction(equity_yield)
    if y == 0:
        j = Fraction(hold + 1, 2 * hold)
    else:
        growth = 1 + y
        j = (hold / (1 - growth**-hold) - 1 / y) / ((growth**hold - 1) / y)
    adjustment = 1 + Fraction(income_change) * j
    return rate / adjustment, scale / abs(adjustment)


def bal_form2_exact(k: int, n: int, rate: float) -> float:
    """(1+i)^k * (1 - a(k)/a(n)) in exact rational arithmetic.

    The raw float expression cancels catastrophically for k near n at
    large positive rates; exact evaluation keeps the oracle honest there.
    """
    r = Fraction(rate)
    if r == 0:
        return float(1 - Fraction(k, n))
    if k == 0:
        return 1.0
    value = (1 + r) ** k * (1 - _annuity_exact(r, k) / _annuity_exact(r, n))
    return float(value)


def recurrence_term_exact(multiplier, increment, seed, k: int) -> Fraction:
    """y_k of y_j = m*y_(j-1) + b from y_0 = c, iterated in exact rationals."""
    m, b, y = Fraction(multiplier), Fraction(increment), Fraction(seed)
    for _ in range(k):
        y = m * y + b
    return y


def recurrence_pv_exact(multiplier, increment, seed, rate, n: int) -> Fraction:
    """Sum of y_k / (1+i)^k over k = 1..n, term by term in exact rationals.

    Takes floats or Fractions; every named stream of the recurrence module
    is one of these: y_k = d - (k-1)h is m = 1, b = -h, c = d + h, and
    (1+g)^(k-1) is m = 1+g, b = 0, c = 1/(1+g).
    """
    m, b, y = Fraction(multiplier), Fraction(increment), Fraction(seed)
    v = 1 / (1 + Fraction(rate))
    total, factor = Fraction(0), Fraction(1)
    for _ in range(n):
        y = m * y + b
        factor *= v
        total += y * factor
    return total


def offset_pv_exact(first_income, decrement, multiplier, increment, seed, rate, n: int) -> Fraction:
    """d at period 1, then d - h*y_k at period k+1, discounted term by term
    in exact rationals."""
    d, h, v = Fraction(first_income), Fraction(decrement), 1 / (1 + Fraction(rate))
    incomes = [d] + [d - h * recurrence_term_exact(multiplier, increment, seed, k) for k in range(1, n)]
    return sum(income * v**k for k, income in enumerate(incomes, 1))


def ellwood_j_exact(rate, n: int) -> float:
    """J = (value of s_1..s_n) / (a_n s_n), from exact sums rounded once.

    With 1 + i = A/D in lowest terms, A^n times the value of s_1..s_n is
    the sum of (n-l+1) D^l A^(n-l) over l = 1..n, A^n a_n the sum of
    D^l A^(n-l), and D^(n-1) s_n the sum of A^k D^(n-1-k) over k < n. The
    sums run on integers, by Horner's rule, and the one division rounds
    correctly: a rate such as 1e-300 is exact only with a 1000-bit
    denominator, and reducing a Fraction of that size at each step is slow.
    """
    growth = 1 + Fraction(rate)
    a, d = growth.numerator, growth.denominator
    stream = annuity = accumulated = 0
    d_l = a_k = 1
    for l in range(1, n + 1):
        d_l *= d
        stream = stream * a + (n - l + 1) * d_l
        annuity = annuity * a + d_l
        accumulated = accumulated * d + a_k
        a_k *= a
    return stream * (d_l // d) / (annuity * accumulated)


def format_fixed_oracle(value: float, places: int) -> str:
    """Shortest repr rounded half away from zero to places decimals, by Decimal.

    The Decimal-only formatter the fast one replaced, given a context wide
    enough for every finite double (the default 28 digits failed from 1e26).
    """
    with localcontext() as ctx:
        ctx.prec = 400
        quantized = Decimal(repr(float(value))).quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP)
        if quantized == 0:
            quantized = abs(quantized)
        return f"{quantized:f}"


def align_table_oracle(rows) -> str:
    """Columns padded cell by cell with ljust, two-space gutters."""
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def schedule_cells_oracle(schedule, places: int) -> list[list[str]]:
    """Header and rows of a schedule, every amount through format_fixed_oracle."""
    rows = [["period", "payment", "interest", "principal_reduction", "ending_balance"]]
    for row in schedule.rows:
        amounts = (row.payment, row.interest, row.principal_reduction, row.ending_balance)
        rows.append([str(row.period)] + [format_fixed_oracle(x, places) for x in amounts])
    return rows


# Exact schedules. Each returns (denominator, rows): every row holds the
# payment, interest, principal reduction and ending balance as integer
# numerators over the one common denominator. Long schedules stay fast
# that way: a Fraction would take a gcd of numbers thousands of bits long
# at every step. A double rate is a / d exactly, so 1 + rate = g / d, and
# s(m, rate) = 1 + (1 + rate) + ... + (1 + rate)^(m-1) = S[m] / d^(m-1).


def _accumulations(rate: float, n: int):
    """a, d, g and S[0..n] for the double rate = a / d."""
    a, d = float(rate).as_integer_ratio()
    g = d + a
    sums, power = [0], 1
    for _ in range(n):
        sums.append(sums[-1] * g + power)  # S[m + 1] = S[m] g + d^m
        power *= d
    return a, d, g, sums


def level_schedule_exact(principal: float, rate: float, n: int):
    """Level schedule: the balance after k payments is P (1+i)^k s(n-k) / s(n),
    which is P g^k S[n-k] / S[n], at a zero rate too."""
    p, e = float(principal).as_integer_ratio()
    a, d, g, sums = _accumulations(rate, n)
    before, power, rows = p * d * sums[n], 1, []  # balance x denominator, g^(k-1)
    for k in range(1, n + 1):
        interest = a * p * power * sums[n - k + 1]
        power *= g
        after = p * d * power * sums[n - k]
        rows.append((interest + before - after, interest, before - after, after))
        before = after
    return e * sums[n] * d, rows


def generalized_schedule_exact(principal_reductions, rate: float):
    """Schedule of the given principal reductions: the balance is the sum of
    the reductions still to come, and interest accrues on it."""
    reductions = [Fraction(x) for x in principal_reductions]
    scale = max(x.denominator for x in reductions)  # powers of two: their lcm
    a, d = float(rate).as_integer_ratio()
    tails = [0]
    for x in reversed(reductions):
        tails.append(tails[-1] + x.numerator * (scale // x.denominator))
    tails.reverse()
    rows = []
    for k, x in enumerate(reductions):
        interest, reduction = a * tails[k], x.numerator * (scale // x.denominator) * d
        rows.append((reduction + interest, interest, reduction, tails[k + 1] * d))
    return scale * d, rows


def sinking_fund_schedule_exact(principal: float, rate: float, recovery_rate: float, n: int):
    """Sinking-fund schedule: the fund holds P s(k, r) / s(n, r) after k
    deposits, which is P S[k] d^(n-k) / S[n], and the deposit of period k
    earns nothing yet, P (1+r)^(k-1) / s(n, r) = P g^(k-1) d^(n-k) / S[n]."""
    p, e = float(principal).as_integer_ratio()
    a, di = float(rate).as_integer_ratio()
    _, d, g, sums = _accumulations(recovery_rate, n)
    powers = [d**j for j in range(n + 1)]
    power, rows = 1, []  # g^(k-1)
    for k in range(1, n + 1):
        interest = a * p * (sums[n] - sums[k - 1] * powers[n - k + 1])
        recovered = p * di * power * powers[n - k]
        power *= g
        after = p * di * (sums[n] - sums[k] * powers[n - k])
        rows.append((interest + recovered, interest, recovered, after))
    return e * sums[n] * di, rows


def assert_rows_within(schedule, exact, bound: Fraction):
    """Every amount of every row within bound of the exact rows that one of
    the *_schedule_exact oracles returned, compared in integers: they hold
    numerators over one denominator."""
    denominator, rows = exact
    assert [row.period for row in schedule.rows] == list(range(1, len(rows) + 1))
    top_bound, bound_denominator = bound.as_integer_ratio()
    for row, exact_row in zip(schedule.rows, rows):
        for value, numerator in zip(row[1:], exact_row):
            top, bottom = value.as_integer_ratio()
            error = abs(top * denominator - numerator * bottom)  # over bottom * denominator
            assert error * bound_denominator <= top_bound * bottom * denominator, (
                f"period {row.period}: error {float(Fraction(error, bottom * denominator) / bound):.3g} times the bound"
            )
