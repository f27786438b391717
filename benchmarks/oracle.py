"""Output checks that share no code with the program they check.

Every CSV a sample writes is checked here against an independent
computation: numpy integer arithmetic on an independent prime sieve, mpmath
L-values, and an independent Monte Carlo run.  The only thing taken from the
program is its table of character values, and that table is first checked
to be a genuine set of Dirichlet characters (`characters`).

- checkpoints.csv: exact class sums at x_max and three seed-picked
  checkpoints, from S_f(x; a) = sum over p^k <= x of #{m <= x/p^k :
  p^k m = a mod q} (k = 1 only for omega).  Summed against chi this is the
  identity psi_f(x, chi) = sum chi(p^k) C(x/p^k), C(y) = sum_{m<=y} chi(m).
- twists.csv: exact exponent counts of psi_f(x, chi) from those class sums,
  for every character; real characters must match exactly.
- zeros_*.csv: counts and ordinates against the reference list, the
  residual gate, and mpmath L and L' at a seed-picked zero.
- density.csv: an independent smallest-prime-factor recomputation of the
  harmonic sign-set measures at checkpoints <= 1e6, plus the reference
  value at 1e8 for the default mod-4 race.
- compare_*.csv, meansq.csv: the explicit-formula terms recomputed from
  mpmath L(1/2), L'(1/2) and the zero caches; the mean square from the
  compare rows.
- mc.csv: an independent Monte Carlo of the random-phase model.
"""

from __future__ import annotations

import json
import math
import os
import random

import mpmath
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

RESIDUAL_GATE = 1e-10  # largest |L(1/2 + i gamma)| a zero cache may report
GAMMA_TOL = 1e-8
DENSITY_CHECK_X = 10**6
MC_ORACLE_TRIALS = 100_000
Y_MIN = math.log(1.0e3)


class Failures(list):
    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok


# ----------------------------------------------------------------- characters


class Char:
    """One validated character: chi(a) = exp(2 pi i e[a] / d), e[a] = -1 off units."""

    def __init__(self, q: int, index: int, d: int, e: np.ndarray):
        self.q, self.index, self.d, self.e = q, index, d, e
        self.principal = bool(np.all(e[e >= 0] == 0))
        self.real = d <= 2
        self.primitive = _is_primitive(q, e)

    def values(self) -> list:
        """chi(0..q-1) as exact mpmath roots of unity."""
        return [0 if k < 0 else mpmath.expjpi(mpmath.mpf(2 * int(k)) / self.d) for k in self.e]

    def sign_table(self) -> np.ndarray:
        assert self.real
        return np.where(self.e < 0, 0, np.where(self.e == 0, 1, -1)).astype(np.int64)


def _is_primitive(q: int, e: np.ndarray) -> bool:
    """Not induced from any proper divisor m: chi is not 1 on all units = 1 mod m."""
    units = np.flatnonzero(e >= 0)
    for m in range(1, q):
        if q % m == 0 and np.all(e[units[units % m == 1 % m]] == 0):
            return False
    return True


def characters(q: int) -> list[Char]:
    """The program's character table for q, after checking it is one.

    Checks: zero exactly off the units, chi(1) = 1, complete
    multiplicativity on the units, phi(q) distinct tables.
    """
    from factorrace.characters import enumerate_characters

    units = np.array([a for a in range(q) if math.gcd(a, q) == 1], dtype=np.int64)
    prod = (units[:, None] * units[None, :]) % q
    out, seen = [], set()
    for chi in enumerate_characters(q):
        e = np.asarray(chi.value_exponents, dtype=np.int64).copy()
        d = int(chi.order)
        unit_mask = np.zeros(q, dtype=bool)
        unit_mask[units] = True
        eu = e[units]
        if not (
            len(e) == q
            and np.all((e >= 0) == unit_mask)
            and e[1 % q] == 0
            and np.all((eu >= 0) & (eu < d))
            and np.array_equal(e[prod], (eu[:, None] + eu[None, :]) % d)
        ):
            raise ValueError(f"character table (q={q}, index={chi.index}) is not a Dirichlet character")
        g = math.gcd(d, *(int(k) for k in eu))
        if g != 1:
            raise ValueError(f"character (q={q}, index={chi.index}) has order below {d}")
        seen.add(e.tobytes())
        out.append(Char(q, int(chi.index), d, e))
    if len(seen) != len(units) or len(out) != len(units):
        raise ValueError(f"expected {len(units)} distinct characters mod {q}")
    return out


def selected(chars: list[Char], chi: str) -> list[Char]:
    return chars if chi == "all" else [chars[int(chi)]]


# ------------------------------------------------------------ primes and sums


def primes_upto(n: int) -> np.ndarray:
    """Odd-only sieve of Eratosthenes; int64 array of the primes <= n."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] <-> 2i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64)


def prime_powers(primes: np.ndarray, x: int, big: bool) -> np.ndarray:
    ps = primes[: np.searchsorted(primes, x, side="right")]
    if not big:
        return ps
    out, pk = [ps], ps[ps <= math.isqrt(x)]
    base = pk.copy()
    pk = pk * pk
    while pk.size:
        keep = pk <= x
        pk, base = pk[keep], base[keep]
        out.append(pk)
        pk = pk * base
    return np.concatenate(out)


def class_sums(x: int, q: int, primes: np.ndarray, big: bool) -> np.ndarray:
    """S_f(x; a) for a = 0..q-1, exactly, from the prime powers up to x.

    #{m <= y : b m = a mod q} = (y // q) R(b, a) + #{1 <= m <= y % q : b m = a},
    with R(b, a) = #{0 <= m < q : b m = a}.  Prime powers are grouped by
    b = p^k mod q and c = (x // p^k) mod q.
    """
    pk = prime_powers(primes, x, big)
    y = x // pk
    b = pk % q
    full = np.bincount(b, weights=(y // q).astype(np.float64), minlength=q)
    grid = np.bincount(b * q + y % q, minlength=q * q).reshape(q, q)
    tail = np.cumsum(grid[:, ::-1], axis=1)[:, ::-1]  # tail[b, m] = #{c >= m}
    bm = (np.arange(q)[:, None] * np.arange(q)[None, :]) % q
    s = np.bincount(bm.ravel(), weights=np.repeat(full, q), minlength=q)
    s += np.bincount(bm[:, 1:].ravel(), weights=tail[:, 1:].ravel().astype(np.float64), minlength=q)
    if s.sum() >= 2.0**52:
        raise OverflowError("class sums beyond exact float range")
    return np.rint(s).astype(np.int64)


def exponent_counts(s: np.ndarray, chi: Char) -> np.ndarray:
    """psi = sum_a chi(a) S(a) as integer counts of each d-th root of unity."""
    units = chi.e >= 0
    return np.bincount(chi.e[units], weights=s[units].astype(np.float64), minlength=chi.d).astype(np.int64)


def root_sum(counts: np.ndarray, d: int) -> complex:
    ang = 2.0 * math.pi * np.arange(d) / d
    re = math.fsum(float(c) * math.cos(a) for c, a in zip(counts, ang) if c)
    im = math.fsum(float(c) * math.sin(a) for c, a in zip(counts, ang) if c)
    return complex(re, im)


def checkpoint_grid(x_max: int, ratio: float) -> list[int]:
    """round(1000 * ratio^k) within [1000, x_max], plus x_max."""
    pts, k = {x_max}, 0
    while (x := round(1000 * ratio**k)) <= x_max:
        pts.add(x)
        k += 1
    return sorted(pts)


# ----------------------------------------------------------------- CSV input


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of one output file; comment lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        body = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return body[0].split(","), [ln.split(",") for ln in body[1:]]


def read_zeros(path: str) -> list[tuple[float, complex, float]]:
    header, rows = read_csv(path)
    if header != ["gamma", "re_lprime", "im_lprime", "residual"]:
        raise ValueError(f"{path}: unexpected header {header}")
    return [(float(g), complex(float(a), float(b)), float(r)) for g, a, b, r in rows]


def fmt_t0(t0: float) -> str:
    """File-name spelling of a truncation height, as the CLI names its files."""
    return str(int(t0)) if float(t0).is_integer() else str(t0)


# ------------------------------------------------------------------- L-values


def l_and_derivative(chi: Char, s) -> tuple[complex, complex]:
    vals = chi.values()
    with mpmath.workdps(20):
        return complex(mpmath.dirichlet(s, vals)), complex(mpmath.dirichlet(s, vals, 1))


# ---------------------------------------------------------------- the checker


class Checker:
    def __init__(self, inst, out_dir: str):
        self.inst = inst
        self.w = inst.workload
        self.out = out_dir
        self.fail = Failures()
        self.rng = random.Random(f"oracle:{inst.name}:{inst.seed}")
        with open(REFERENCE, encoding="utf-8") as fh:
            self.ref = json.load(fh)
        self.chars = characters(self.w.q)
        self.sel = selected(self.chars, self.w.chi)
        self.zero_targets = [c for c in self.sel if c.primitive and not c.principal]
        self.density_targets = [c for c in self.sel if c.real and not c.principal]
        self.twist_values: dict[tuple[int, int], tuple[complex, complex]] = {}
        self.l_half: dict[int, tuple[complex, complex]] = {}
        self.caches: dict[int, list] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def run(self) -> list[str]:
        leftovers = [n for n in os.listdir(self.out) if n.startswith(".tmp")]
        self.fail.expect(not leftovers, f"temporary files left in output: {leftovers}")
        cmd = self.w.command
        steps = []
        if cmd in ("sieve", "all"):
            steps.append(self.check_sieve)
        if cmd in ("zeros", "all"):
            steps.append(self.check_zeros)
        if cmd == "all":
            steps += [self.check_compare, self.check_density, self.check_mc]
        for step in steps:
            try:
                step()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.fail.append(f"{step.__name__}: {type(exc).__name__}: {exc}")
        return list(self.fail)

    # -- sieve: checkpoints.csv and twists.csv

    def check_sieve(self) -> None:
        inst, q = self.inst, self.w.q
        grid = checkpoint_grid(inst.x_max, self.w.ratio or 1.02)
        header, rows = read_csv(self.path("checkpoints.csv"))
        self.fail.expect(header == ["x", "a", "S_omega", "S_Omega"], f"checkpoints.csv header {header}")
        sums: dict[int, np.ndarray] = {}
        for x, a, sw, sW in rows:
            sums.setdefault(int(x), np.zeros((2, q), dtype=np.int64))[:, int(a)] = (int(sw), int(sW))
        self.fail.expect(sorted(sums) == grid, "checkpoints.csv does not hold the checkpoint grid")
        self.fail.expect(len(rows) == len(grid) * q, "checkpoints.csv row count")

        picks = {inst.x_max, *self.rng.sample(grid[:-1], min(3, len(grid) - 1))}
        primes = primes_upto(inst.x_max)
        oracle = {}
        for x in sorted(picks):
            oracle[x] = np.stack([class_sums(x, q, primes, big) for big in (False, True)])
            self.fail.expect(
                x in sums and np.array_equal(sums[x], oracle[x]), f"class sums differ at x={x}"
            )
        del primes

        _, rows = read_csv(self.path("twists.csv"))
        self.fail.expect(len(rows) == len(grid) * len(self.sel), "twists.csv row count")
        self.twist_values = {
            (int(r[0]), int(r[2])): (complex(float(r[3]), float(r[4])), complex(float(r[5]), float(r[6])))
            for r in rows
        }
        for x in sorted(picks):
            for chi in self.sel:
                got = self.twist_values.get((x, chi.index))
                if not self.fail.expect(got is not None, f"twists.csv lacks x={x} chi={chi.index}"):
                    continue
                for kind, s, g in zip(("omega", "Omega"), oracle[x], got):
                    counts = exponent_counts(s, chi)
                    if chi.real:
                        exact = int(counts[0]) - (int(counts[1]) if chi.d == 2 else 0)
                        ok = g == complex(exact, 0.0)
                    else:
                        exact = root_sum(counts, chi.d)
                        ok = abs(g - exact) <= 1e-13 * float(np.abs(counts).sum()) + 1e-12
                    self.fail.expect(ok, f"twist {kind} x={x} chi={chi.index}: {g} vs {exact}")

    # -- zeros: zeros_q*_chi*.csv

    def check_zeros(self) -> None:
        t_scan = self.inst.t_scan
        for chi in self.zero_targets:
            name = f"zeros_q{chi.q}_chi{chi.index}.csv"
            if not self.fail.expect(os.path.exists(self.path(name)), f"{name} missing"):
                continue
            recs = read_zeros(self.path(name))
            self.caches[chi.index] = recs
            ref = [g for g in self.ref["zeros"][f"{chi.q}:{chi.index}"] if abs(g) <= t_scan]
            gammas = [g for g, _, _ in recs]
            if self.fail.expect(len(gammas) == len(ref), f"{name}: {len(gammas)} zeros, reference {len(ref)}"):
                worst = max((abs(a - b) for a, b in zip(gammas, ref)), default=0.0)
                self.fail.expect(worst <= GAMMA_TOL, f"{name}: ordinates differ from reference by {worst:.3g}")
            resid = max((r for _, _, r in recs), default=0.0)
            self.fail.expect(resid <= RESIDUAL_GATE, f"{name}: residual {resid:.3g} > {RESIDUAL_GATE}")
            positive = [rec for rec in recs if rec[0] > 0]
            if positive:  # one zero per run: mpmath takes seconds per L-value at q = 163
                g, lp, _ = self.rng.choice(positive)
                lv, dv = l_and_derivative(chi, mpmath.mpc(0.5, g))
                self.fail.expect(abs(lv) <= 1e-9, f"{name}: |L(1/2+i{g})| = {abs(lv):.3g} by mpmath")
                self.fail.expect(
                    abs(dv - lp) <= 1e-8 * max(1.0, abs(dv)), f"{name}: L' at {g} is {lp}, mpmath {dv}"
                )

    def half(self, chi: Char) -> tuple[complex, complex]:
        if chi.index not in self.l_half:
            self.l_half[chi.index] = l_and_derivative(chi, mpmath.mpf(0.5))
        return self.l_half[chi.index]

    # -- compare_*.csv and meansq.csv

    def check_compare(self) -> None:
        grid = checkpoint_grid(self.inst.x_max, self.w.ratio or 1.02)
        t0s = self.inst.t0 or (self.inst.t_scan,)
        _, mrows = read_csv(self.path("meansq.csv"))
        meansq = [(float(a), float(b), float(c)) for a, b, c in mrows]
        expected_meansq = []
        for chi in self.zero_targets:
            recs = self.caches.get(chi.index)
            if recs is None:
                continue
            lh, ldh = self.half(chi)
            a_chi = 1 if chi.real else 0
            g = np.array([r[0] for r in recs])
            lp = np.array([r[1] for r in recs])
            for kind in ("omega", "Omega"):
                sign = -1.0 if kind == "omega" else 1.0
                for t0 in t0s:
                    name = f"compare_{kind}_q{chi.q}_chi{chi.index}_T{fmt_t0(t0)}.csv"
                    _, rows = read_csv(self.path(name))
                    xs = [int(r[0]) for r in rows]
                    self.fail.expect(xs == grid, f"{name}: rows are not the checkpoint grid")
                    vals = np.array([[float(v) for v in r[1:]] for r in rows])
                    obs = vals[:, 0] + 1j * vals[:, 1]
                    main = vals[:, 2] + 1j * vals[:, 3]
                    full = vals[:, 4] + 1j * vals[:, 5]
                    res = vals[:, 6] + 1j * vals[:, 7]
                    x = np.array(xs, dtype=np.float64)
                    lx, sx = np.log(x), np.sqrt(x)
                    main_or = sign * a_chi * (lh * sx / lx + (2 * lh - ldh) * sx / lx**2)
                    sel = np.abs(g) <= t0
                    terms = lp[sel][None, :] * np.exp(1j * np.outer(lx, g[sel])) / (0.5 + 1j * g[sel])[None, :]
                    scale = sx / lx**2
                    zsum = scale * terms.sum(axis=1)
                    mag_main = (abs(lh) * sx / lx + abs(2 * lh - ldh) * sx / lx**2) * a_chi
                    mag_zero = scale * np.abs(terms).sum(axis=1)
                    self.fail.expect(
                        bool(np.all(np.abs(main - main_or) <= 1e-9 * mag_main + 1e-12)),
                        f"{name}: main term differs from mpmath L(1/2), L'(1/2)",
                    )
                    self.fail.expect(
                        bool(np.all(np.abs(full - main_or - zsum) <= 1e-9 * (mag_main + mag_zero) + 1e-12)),
                        f"{name}: main + zero sum differs",
                    )
                    norm = lx**2 / sx
                    res_tol = 1e-9 * (np.abs(obs) + np.abs(full)) * norm + 1e-12
                    self.fail.expect(
                        bool(np.all(np.abs(res - (obs - full) * norm) <= res_tol)),
                        f"{name}: normalised residual differs",
                    )
                    col = 0 if kind == "omega" else 1
                    for i, xv in enumerate(xs):
                        tw = self.twist_values.get((xv, chi.index))
                        self.fail.expect(
                            tw is not None and obs[i] == tw[col], f"{name}: observed psi at x={xv} != twists.csv"
                        )
                    keep = lx >= Y_MIN - 1e-12
                    y, r2 = lx[keep], np.abs(res[keep]) ** 2
                    if len(y) >= 2:
                        m = float(np.sum((r2[1:] + r2[:-1]) * np.diff(y)) / 2 / (y[-1] - y[0]))
                        expected_meansq.append((float(t0), float(y[-1]), m))
        self.fail.expect(len(meansq) == len(expected_meansq), "meansq.csv row count")
        for got, want in zip(meansq, expected_meansq):
            ok = (
                got[0] == want[0]
                and abs(got[1] - want[1]) <= 1e-12 * want[1]
                and abs(got[2] - want[2]) <= 1e-9 * abs(want[2])
            )
            self.fail.expect(ok, f"meansq.csv row {got} vs recomputed {want}")

    # -- density.csv

    def check_density(self) -> None:
        inst = self.inst
        chi = self.density_targets[0]
        grid = checkpoint_grid(inst.x_max, self.w.ratio or 1.02)
        header, rows = read_csv(self.path("density.csv"))
        self.fail.expect(header == ["X", "delta_omega", "delta_Omega"], f"density.csv header {header}")
        got = {int(r[0]): (r[1], r[2]) for r in rows}
        self.fail.expect(sorted(got) == grid, "density.csv does not hold the checkpoint grid")

        n = min(inst.x_max, DENSITY_CHECK_X)
        w, W = small_factor_counts(n)
        sgn = chi.sign_table()[np.arange(n + 1) % chi.q]
        psi_w, psi_W = np.cumsum(sgn * w), np.cumsum(sgn * W)
        inv = np.zeros(n + 1)
        inv[1:] = 1.0 / np.arange(1, n + 1)
        terms = (inv * (psi_w < 0), inv * (psi_W > 0))
        xs = [x for x in grid if x <= n]
        edges = [0] + [x + 1 for x in xs]
        for t_idx, col in ((0, 0), (1, 1)):
            pieces = [math.fsum(terms[t_idx][a:b]) for a, b in zip(edges, edges[1:])]
            prefix = [math.fsum(pieces[: k + 1]) for k in range(len(pieces))]
            for x, h in zip(xs, prefix):
                want = h / math.log(x)
                have = float(got[x][col]) if x in got else float("nan")
                self.fail.expect(
                    math.isclose(have, want, rel_tol=1e-12, abs_tol=1e-15),
                    f"density.csv col {col} at X={x}: {have} vs {want}",
                )
        ref = self.ref["density_at_x_max"].get(inst.name)
        if ref is not None and inst.seed == 0 and inst.x_max == ref["x"]:
            self.fail.expect(
                got.get(ref["x"]) == (ref["delta_omega"], ref["delta_Omega"]),
                f"density at {ref['x']}: {got.get(ref['x'])} vs reference",
            )

    # -- mc.csv

    def check_mc(self) -> None:
        header, rows = read_csv(self.path("mc.csv"))
        self.fail.expect(header == ["y", "p_neg", "trials", "seed", "kind"], f"mc.csv header {header}")
        blocks: list[list[list[str]]] = []
        for r in rows:
            if not blocks or r[4] != blocks[-1][0][4] or float(r[0]) <= float(blocks[-1][-1][0]):
                blocks.append([])
            blocks[-1].append(r)
        grid_logs = {math.log(x) for x in checkpoint_grid(self.inst.x_max, self.w.ratio or 1.02)}
        t0 = min(max(self.inst.t0 or (self.inst.t_scan,)), self.inst.t_scan)
        models = [(chi, kind) for chi in self.density_targets if chi.primitive for kind in ("omega", "Omega")]
        self.fail.expect(len(blocks) == len(models), f"mc.csv has {len(blocks)} blocks, expected {len(models)}")
        for (chi, kind), block in zip(models, blocks):
            self.fail.expect(block[0][4] == kind, f"mc.csv block kind {block[0][4]} != {kind}")
            recs = self.caches.get(chi.index, [])
            amps = np.array([2.0 * abs(lp / complex(0.5, g)) for g, lp, _ in recs if 0 < g <= t0])
            lh, ldh = self.half(chi)
            slope, intercept = lh.real, (2 * lh - ldh).real
            osc = independent_mc(amps, self.inst.mc_seed)
            for y, p, trials, seed, _ in block:
                yv, pv, n1 = float(y), float(p), int(trials)
                self.fail.expect(yv in grid_logs, f"mc.csv y={y} is not log of a checkpoint")
                self.fail.expect(int(seed) == self.inst.mc_seed, f"mc.csv seed {seed}")
                d = slope * yv + intercept
                q_hat = float(np.mean(osc < d)) if kind == "omega" else float(np.mean(osc > -d))
                var = max(q_hat * (1 - q_hat), 10.0 / n1)
                tol = 8.0 * math.sqrt(var * (1.0 / n1 + 1.0 / len(osc)))
                self.fail.expect(abs(pv - q_hat) <= tol, f"mc.csv {kind} chi={chi.index} y={y}: {pv} vs {q_hat}")


def small_factor_counts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(omega(m), Omega(m)) for 0 <= m <= n from a smallest-prime-factor table."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in primes_upto(math.isqrt(n)):
        idx = np.arange(p * p, n + 1, p)
        spf[idx] = np.where(spf[idx] == 0, p, spf[idx])
    m = np.arange(n + 1, dtype=np.int64)
    spf = np.where((spf == 0) & (m >= 2), m, spf)
    w = np.zeros(n + 1, dtype=np.int64)
    W = np.zeros(n + 1, dtype=np.int64)
    last = np.zeros(n + 1, dtype=np.int64)
    while True:
        live = m > 1
        if not live.any():
            return w, W
        p = np.where(live, spf[m], 1)
        W += live
        w += live & (p != last)
        last = np.where(live, p, last)
        m = np.where(live, m // p, m)


def independent_mc(amps: np.ndarray, seed: int) -> np.ndarray:
    """Samples of sum a_j cos(theta_j), theta_j uniform, from a Philox stream."""
    rng = np.random.Generator(np.random.Philox(seed))
    out = np.empty(MC_ORACLE_TRIALS)
    chunk = 25_000
    for lo in range(0, MC_ORACLE_TRIALS, chunk):
        k = min(chunk, MC_ORACLE_TRIALS - lo)
        out[lo : lo + k] = np.cos(rng.uniform(0.0, 2.0 * math.pi, size=(k, len(amps)))) @ amps
    return out


def check(inst, out_dir: str) -> list[str]:
    """All failures found in one sample's output directory (empty: correct)."""
    return Checker(inst, out_dir).run()
