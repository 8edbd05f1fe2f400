"""Generators for the unsolvable-system families and per-depth checkers.

Each family is an infinite unimodular system with no solution in its
ambient group; finite truncations are always solvable, but any solution is
forced to grow with the depth.  The checkers quantify that growth:

* ``pbad``: over a p-group with cyclic summands of fast-growing orders,
  the order of the first unknown diverges.
* ``bad``:  over a sum of Z/p_i for distinct primes, the number of nonzero
  primary components of the shared unknown equals the depth.
* ``zbad``: over Z, congruence propagation forces |x| >= 3**m at depth m,
  so no single integer works at every depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abelian import AbelianGroupDescriptor, Summand, order, primary_component
from .errors import DuplicatePrime, VerificationFailed
from .intmath import check_prime, crt_pair
from .solve_abelian import Solution, solve_bounded
from .systems import AbelianEquation, AbelianSystem, is_unimodular, verify_solution


@dataclass
class GrowthReport:
    """One depth of a divergence experiment: a proven lower bound and the
    witness solution of the truncation it came from."""

    family: str
    depth: int
    metric: str
    bound: int
    observed: int
    witness: Solution | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "family": self.family,
            "depth": self.depth,
            "metric": self.metric,
            "bound": str(self.bound),
            "observed": str(self.observed),
            "details": {k: str(v) for k, v in sorted(self.details.items())},
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def _k_sequence(j: int) -> list[int]:
    """k_0 = 0 and k_{i+1} = 2*k_i + 1: the fixed choice satisfying k_{i+1} > 2*k_i."""
    ks = [0]
    for _ in range(j):
        ks.append(2 * ks[-1] + 1)
    return ks


def gen_pbad(p: int, j: int):
    """Depth-j truncation of {x_i - p**(k_i - k_{i-1}) * x_{i+1} = a_i} over
    the direct sum of Z/p**k_i, where a_i generates the i-th summand."""
    if j < 1:
        raise ValueError("depth must be >= 1")
    ks = _k_sequence(j)
    group = AbelianGroupDescriptor(Summand.cyclic(p, ks[i]) for i in range(1, j + 1))
    equations = []
    for i in range(1, j + 1):
        coeffs = {f"x{i}": 1, f"x{i + 1}": -(p ** (ks[i] - ks[i - 1]))}
        equations.append(AbelianEquation(coeffs, group.generator(i - 1)))
    return group, AbelianSystem(group, equations)


def pbad_growth(p: int, j: int) -> GrowthReport:
    """Solve the depth-j truncation and certify order(x1) >= p**(k_{j-1}+1).

    The bound is the order of the j-th component of any solution's x1: the
    telescoped equations pin that component to p**k_{j-1} times a generator
    of Z/p**k_j.  It grows without limit, so no single element can solve
    every truncation.
    """
    if j < 2:
        raise ValueError("growth needs depth >= 2")
    group, system = gen_pbad(p, j)
    if not is_unimodular(system.matrix()):
        raise VerificationFailed("the pbad truncation is not unimodular")
    solution = solve_bounded(system)
    ks = _k_sequence(j)
    bound = p ** (ks[j - 1] + 1)
    observed = order(solution["x1"])
    if observed < bound:
        raise VerificationFailed("solution order fell below the derived bound")
    return GrowthReport(
        family="pbad",
        depth=j,
        metric="order_of_x1",
        bound=bound,
        observed=observed,
        witness=solution,
        details={"p": p, "k_j": ks[j], "summands": j},
    )


def distinct_primes(primes) -> list[int]:
    """The ``bad`` family's primes as a list; DuplicatePrime if one repeats,
    else NotPrime if one is not prime."""
    primes = list(primes)
    if len(set(primes)) != len(primes):
        raise DuplicatePrime(f"primes must be distinct, got {primes}")
    for p in primes:
        check_prime(p)
    return primes


def gen_bad(primes, n: int):
    """Depth-n truncation of {x + p_i * y_i = a_i} over Z/p_1 + ... + Z/p_n,
    where a_i is the generator of the i-th summand (outside p_i * A_{p_i})."""
    primes = distinct_primes(primes)
    if not 1 <= n <= len(primes):
        raise ValueError(f"depth must be in 1..{len(primes)}")
    used = primes[:n]
    group = AbelianGroupDescriptor(Summand.cyclic(p, 1) for p in used)
    equations = [
        AbelianEquation({"x": 1, f"y{i + 1}": p}, group.generator(i))
        for i, p in enumerate(used)
    ]
    return group, AbelianSystem(group, equations)


def bad_support_check(primes, n: int) -> GrowthReport:
    """Solve the depth-n truncation and certify that x has exactly n nonzero
    primary components, plus the analytic reason: each a_i lies outside
    p_i * A_{p_i}, so the p_i-component of x can never vanish."""
    group, system = gen_bad(primes, n)
    if not is_unimodular(system.matrix()):
        raise VerificationFailed("the bad truncation is not unimodular")
    solution = solve_bounded(system)
    x = solution["x"]
    used = list(primes)[:n]
    support = sum(1 for p in used if not primary_component(x, p).is_zero)
    if support != n:
        raise VerificationFailed("a primary component of x vanished")
    for i, p in enumerate(used):
        a_i = system.equations[i].rhs
        if int(a_i.coords[i]) % p == 0:
            raise VerificationFailed("a_i unexpectedly fell into p*A")
    return GrowthReport(
        family="bad",
        depth=n,
        metric="support_of_x",
        bound=n,
        observed=support,
        witness=solution,
        details={"primes": ",".join(str(p) for p in used)},
    )


def gen_zbad(m: int):
    """Depth-m truncation of the system over Z from the torsion-free question:
    doubling chain on y, tripling chain on z, glued by 2*y1 - x = 1 and
    x - 3*z1 = 0."""
    group = AbelianGroupDescriptor([Summand.integer()])
    if m == 0:
        return group, AbelianSystem(group, [])
    one = group.element([1])
    zero = group.zero()
    equations = []
    for i in range(1, m):
        equations.append(AbelianEquation({f"y{i + 1}": 2, f"y{i}": -1}, zero))
    equations.append(AbelianEquation({"y1": 2, "x": -1}, one))
    equations.append(AbelianEquation({"x": 1, "z1": -3}, zero))
    for i in range(1, m):
        equations.append(AbelianEquation({f"z{i}": 1, f"z{i + 1}": -3}, zero))
    return group, AbelianSystem(group, equations)


def zbad_solution_from_x(m: int, x: int) -> dict:
    """The unique extension of a feasible x: y_i = (1+x)/2**i, z_i = x/3**i."""
    group, system = gen_zbad(m)
    assignment = {"x": group.element([x])}
    for i in range(1, m + 1):
        assignment[f"y{i}"] = group.element([(1 + x) // 2**i])
        assignment[f"z{i}"] = group.element([x // 3**i])
    if not verify_solution(system, assignment):
        raise VerificationFailed(f"x = {x} does not extend to a depth-{m} solution")
    return assignment


def zbad_bound_check(m: int, brute_limit: int = 10**6) -> GrowthReport:
    """Certify the depth-m bound over Z by congruence propagation.

    The chains force x ≡ -1 (mod 2**m) and x ≡ 0 (mod 3**m); hence x is a
    nonzero multiple of 3**m and |x| >= 3**m for every integer solution.
    The reported observed value is the minimal positive x (computed by CRT),
    and a brute-force scan over |x| <= brute_limit re-checks that no
    solution violates the bound.
    """
    if m < 1:
        raise ValueError("depth must be >= 1")
    mod2 = 2**m
    mod3 = 3**m
    min_positive = crt_pair(0, mod3, (-1) % mod2, mod2)
    if min_positive % mod3 or (min_positive + 1) % mod2:
        raise VerificationFailed("the CRT solution misses a congruence")
    bound = mod3
    if min_positive < bound:
        raise VerificationFailed("the minimal solution fell below the bound")

    found = 0
    scan_violations = 0
    for x in range(-brute_limit, brute_limit + 1):
        if x % mod3 == 0 and (x + 1) % mod2 == 0:
            found += 1
            if abs(x) < bound:
                scan_violations += 1
    if scan_violations:
        raise VerificationFailed("brute force found a solution below the bound")

    assignment = zbad_solution_from_x(m, min_positive)
    witness = Solution(assignment["x"].descriptor, assignment)
    return GrowthReport(
        family="zbad",
        depth=m,
        metric="min_abs_x",
        bound=bound,
        observed=min_positive,
        witness=witness,
        details={
            "x_mod": f"-1 mod {mod2}, 0 mod {mod3}",
            "solutions_within_scan": found,
            "scan_limit": brute_limit,
        },
    )
