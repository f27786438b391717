"""Command-line pipeline: sieve -> zeros -> compare -> density.

Subcommands write plain CSV files into the output directory; every file
carries a comment header with a hash of the resolved configuration, so a
file can always be traced back to the run that produced it.  Outputs are
byte-identical given the same configuration and seed: no timestamps, fixed
float formatting, and sieve passes whose kernel runs ahead in a forked
helper process and whose folds stay in order in this one.  In `all` one
pass serves the class sums, the twists and the density of the first real
non-principal character; each further real character takes its own pass
in `density`.  The hash
excludes the output path and `threads`, which is accepted and validated
but selects no code path.

Exit codes: 0 ok, 2 configuration error, 3 numeric verification failure
(zero-count consistency), 4 I/O or missing-input error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace

from . import __version__
from .characters import DirichletCharacter, character, conjugate_index, enumerate_characters
from .density import (
    DISAGREE_TOL,
    MIN_TRIALS,
    build_model,
    disagrees,
    li_monte_carlo,
    write_density_csv,
    write_mc_csv,
)
from .lfunction import l_value
from .prediction import mean_square, predict, residual, write_compare_csv, write_meansq_csv
from .sieve import (
    KINDS,
    RATIO,
    SIGN,
    SieveConfig,
    combined_run,
    density_scan,
    sieve_run,
    write_checkpoints_csv,
    write_twists_csv,
)
from .zeros import (
    MAX_SCAN_HEIGHT,
    CacheFormatError,
    MissedZeroError,
    ZeroCache,
    cache_filename,
    conjugate_cache,
    load_cache,
    scan_zeros,
    store_cache,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


class MissingInputError(OSError):
    pass


@dataclass(frozen=True)
class RunConfig:
    x_max: int = 10**6
    q: int = 4
    chi: str = "all"  # "all" or an index
    t_scan: float = 50.0
    t0_list: tuple[float, ...] = (50.0,)
    ratio: float = RATIO
    out: str = "out"
    seed: int = 42
    threads: int = 1
    trials: int = 10_000

    def hash(self) -> str:
        # excludes `out` and `threads`: results do not depend on either
        canon = "|".join(
            [
                f"xmax={self.x_max}",
                f"q={self.q}",
                f"chi={self.chi}",
                "kinds=omega,Omega",  # both races always run; the token keeps existing config ids
                f"T={self.t_scan!r}",
                f"T0={','.join(repr(t) for t in self.t0_list)}",
                f"ratio={self.ratio!r}",
                "segment=1048576",  # once a setting, now fixed; the token keeps existing config ids
                f"seed={self.seed}",
                f"trials={self.trials}",
                f"version={__version__}",
            ]
        )
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def comment(self) -> str:
        return f"config={self.hash()} version={__version__}"


def _tuple_of(conv):
    return lambda text: tuple(conv(v) for v in text.split(","))


def _chi(text: str) -> str:
    """'all' or the canonical decimal index, so that 1 and 01 hash alike."""
    return text if text == "all" else str(int(text))


# One table for the config file and the command line.  Key (also the flag)
# -> (RunConfig field, converter of the text value, argparse options).  A
# repeated flag is joined with "," like a file value; a repeated file key is
# refused.
_OPTIONS = {
    "xmax": ("x_max", int, dict(help="sieve ceiling x_max")),
    "q": ("q", int, dict(help="modulus")),
    "chi": ("chi", _chi, dict(help="character index or 'all'")),
    "T": ("t_scan", float, dict(help="zero-scan height")),
    "T0": ("t0_list", _tuple_of(float), dict(action="append", help="zero-sum truncation (repeatable)")),
    "ratio": ("ratio", float, dict(help="checkpoint grid ratio")),
    "out": ("out", str, dict(help="output directory")),
    "seed": ("seed", int, dict(help="Monte Carlo seed")),
    "threads": ("threads", int, dict(help="accepted (>= 1); selects nothing")),
    "trials": ("trials", int, dict(help="Monte Carlo trials")),
}


def _convert(key: str, text: str, where: str):
    field, conv, _ = _OPTIONS[key]
    try:
        return field, conv(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {text!r}") from exc


def _read_config_file(path: str) -> dict:
    updates = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in _OPTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                field, value = _convert(key, val, f"{path}:{lineno}")
                if field in updates:
                    raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
                updates[field] = value
    except OSError as exc:
        raise MissingInputError(f"cannot read config file {path}: {exc}") from exc
    return updates


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    rc = RunConfig()
    if args.config:
        rc = replace(rc, **_read_config_file(args.config))
    overrides = {}
    for key in _OPTIONS:
        val = getattr(args, key)
        if val is not None:
            text = ",".join(val) if isinstance(val, list) else val
            field, value = _convert(key, text, "--" + key)
            overrides[field] = value
    rc = replace(rc, **overrides)
    _validate(rc)
    return rc


def _validate(rc: RunConfig) -> None:
    if rc.threads < 1:
        raise ConfigError("threads must be >= 1")
    if rc.trials < MIN_TRIALS:
        raise ConfigError(f"trials must be >= {MIN_TRIALS}")
    if rc.seed < 0:
        raise ConfigError("seed must be >= 0")
    if not 0 < rc.t_scan <= MAX_SCAN_HEIGHT:
        raise ConfigError(f"T must be in (0, {MAX_SCAN_HEIGHT}], got {rc.t_scan}")
    if not rc.t0_list:
        raise ConfigError("at least one T0 is required")
    if not all(0 <= t0 <= rc.t_scan for t0 in rc.t0_list):
        raise ConfigError(f"every T0 must be in [0, T={rc.t_scan}]")
    try:
        _sieve_config(rc)
        _characters(rc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sieve_config(rc: RunConfig) -> SieveConfig:
    return SieveConfig(x_max=rc.x_max, q=rc.q, ratio=rc.ratio)


def _characters(rc: RunConfig) -> list[DirichletCharacter]:
    if rc.chi == "all":
        return enumerate_characters(rc.q)
    return [character(rc.q, int(rc.chi))]


def _zero_targets(rc: RunConfig) -> list[DirichletCharacter]:
    targets = [c for c in _characters(rc) if c.is_primitive and not c.is_principal]
    if rc.chi != "all" and not targets:
        raise ConfigError(f"character (q={rc.q}, chi={rc.chi}) is not primitive non-principal")
    return targets


def _density_targets(rc: RunConfig) -> list[DirichletCharacter]:
    return [c for c in _characters(rc) if c.is_real and not c.is_principal]


def _path(rc: RunConfig, name: str) -> str:
    return os.path.join(rc.out, name)


def cmd_sieve(rc: RunConfig, sums=None) -> None:
    cfg = _sieve_config(rc)
    if sums is None:
        sums = sieve_run(cfg)
    write_checkpoints_csv(sums, _path(rc, "checkpoints.csv"), rc.comment())
    write_twists_csv(sums, _characters(rc), _path(rc, "twists.csv"), rc.comment())
    print(f"sieve: x_max={rc.x_max} q={rc.q} checkpoints={len(sums.checkpoints)} -> {rc.out}")


def cmd_zeros(rc: RunConfig) -> None:
    """Each target's reusable cache if its file holds one, else its conjugate's
    from this run mirrored, else a scan: a conjugate pair is scanned once."""
    done: dict[int, ZeroCache] = {}
    for chi in _zero_targets(rc):
        try:
            cache = _load_zero_cache(rc, chi, rc.t_scan)
            print(
                f"zeros: q={rc.q} chi={chi.index} T={rc.t_scan} cached "
                f"(scanned to T={cache.t_scanned}, {cache.count} zeros)"
            )
        except (MissingInputError, ConfigError):
            mate = done.get(conjugate_index(chi))
            cache = scan_zeros(chi, rc.t_scan) if mate is None else conjugate_cache(mate)
            store_cache(cache, _path(rc, cache_filename(rc.q, chi.index)))
            print(f"zeros: q={rc.q} chi={chi.index} T={rc.t_scan} -> {cache.count} zeros")
        done[chi.index] = cache


def _read_twists(
    rc: RunConfig, targets: list[DirichletCharacter]
) -> dict[int, list[tuple[int, complex, complex]]]:
    """twists.csv rows keyed by character index: (x, psi_omega, psi_Omega).

    Refuses a file with a malformed row, or one that another configuration
    wrote: a different q, or a target whose x column is not this config's
    checkpoints in order.
    """
    path = _path(rc, "twists.csv")
    if not os.path.exists(path):
        raise MissingInputError(
            f"{path} not found: run the `sieve` subcommand first (factorrace sieve ...)"
        )
    out: dict[int, list[tuple[int, complex, complex]]] = {}
    qs = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("x,"):
                continue
            try:
                x, q, idx, rw, iw, rb, ib = line.strip().split(",")
                row = (int(x), complex(float(rw), float(iw)), complex(float(rb), float(ib)))
                q, idx = int(q), int(idx)
            except ValueError:
                raise MissingInputError(f"{path}: bad row {line.rstrip()!r}: rerun `sieve`") from None
            qs.add(q)
            out.setdefault(idx, []).append(row)
    cps = list(_sieve_config(rc).checkpoints)
    off = [chi.index for chi in targets if [row[0] for row in out.get(chi.index, [])] != cps]
    if qs - {rc.q}:
        problem = f"q={sorted(qs)}, expected {rc.q}"
    elif off:
        problem = f"the rows of chi={off} are not the checkpoints of x_max={rc.x_max} ratio={rc.ratio}"
    else:
        return out
    raise MissingInputError(f"{path} does not match this configuration ({problem}): rerun `sieve`")


def _load_zero_cache(rc: RunConfig, chi: DirichletCharacter, height: float) -> ZeroCache:
    """The zero cache of chi in the output directory, if it holds every zero up to
    `height`.  Refuses a missing, corrupt or other character's file
    (MissingInputError) and one scanned below `height` (ConfigError)."""
    path = _path(rc, cache_filename(rc.q, chi.index))
    if not os.path.exists(path):
        raise MissingInputError(
            f"{path} not found: run the `zeros` subcommand first (factorrace zeros ...)"
        )
    try:
        cache = load_cache(path)
    except CacheFormatError as exc:
        raise MissingInputError(f"{exc}: rerun `zeros`") from None
    if (cache.q, cache.chi_index) != (rc.q, chi.index):
        raise MissingInputError(
            f"{path} holds the zeros of q={cache.q} chi={cache.chi_index}, "
            f"not q={rc.q} chi={chi.index}: rerun `zeros`"
        )
    if height > cache.t_scanned:
        raise ConfigError(
            f"zeros up to T={height} requested but {path} holds T={cache.t_scanned}; "
            f"rerun `zeros` with a larger --T"
        )
    return cache


def cmd_compare(rc: RunConfig) -> None:
    targets = _zero_targets(rc)
    twists = _read_twists(rc, targets)
    meansq_groups = []
    for chi in targets:
        cache = _load_zero_cache(rc, chi, max(rc.t0_list))
        l_half = l_value(chi, 0.5)
        rows = [row for row in twists.get(chi.index, []) if row[0] >= 2]
        xs = [x for x, _, _ in rows]
        psi = {kind: [row[1 + k] for row in rows] for k, kind in enumerate(KINDS)}
        entries = {kind: [] for kind in KINDS}
        for t0 in rc.t0_list:
            secular, zero_sum = predict(xs, chi, l_half, cache, t0)
            for kind in KINDS:
                main = SIGN[kind] * secular
                full = main + zero_sum
                sigma = residual(xs, psi[kind], full)
                name = f"compare_{kind}_q{rc.q}_chi{chi.index}_T{_fmt_t0(t0)}.csv"
                write_compare_csv(xs, psi[kind], main, full, sigma, _path(rc, name), rc.comment())
                ms = mean_square(xs, sigma)
                if ms is not None:
                    entries[kind].append((t0, *ms))
        meansq_groups += [(f"kind={kind} q={rc.q} chi={chi.index}", e) for kind, e in entries.items() if e]
        print(f"compare: q={rc.q} chi={chi.index} kinds={','.join(KINDS)} T0s={rc.t0_list}")
    write_meansq_csv(meansq_groups, _path(rc, "meansq.csv"), rc.comment())


def _fmt_t0(t0: float) -> str:
    return str(int(t0)) if float(t0).is_integer() else str(t0)


def _mc_y_grid(cfg: SieveConfig) -> list[float]:
    xs = [x for x in cfg.checkpoints if x >= 2]
    if len(xs) > 40:
        step = len(xs) // 40 + 1
        xs = xs[::step] + ([xs[-1]] if xs[-1] not in xs[::step] else [])
    return [math.log(x) for x in xs]


def cmd_density(rc: RunConfig, first=None) -> None:
    """`first`, if given, is the first target's DensityTrace from `cmd_all`'s sieve pass."""
    cfg = _sieve_config(rc)
    targets = _density_targets(rc)
    if not targets:
        raise ConfigError(f"no real non-principal character selected for q={rc.q} chi={rc.chi}")
    if first is None:
        first = density_scan(cfg, targets[0])
    t0, y_grid = max(rc.t0_list), _mc_y_grid(cfg)
    draws = []
    for chi in targets:
        dens = first if chi == targets[0] else density_scan(cfg, chi)
        if chi.is_primitive:
            cache = _load_zero_cache(rc, chi, t0)
            l_half = l_value(chi, 0.5)
            model = build_model(chi, l_half, cache, t0, rc.seed)
            draws.append(li_monte_carlo(model, y_grid, rc.trials))
            flags = [m.kind for m in draws[-1].estimates if disagrees(dens, m)]
            if flags:
                print(f"density: WARNING empirical vs Monte Carlo disagree (> {DISAGREE_TOL}) for {flags}")
        deltas = " ".join(f"delta_{kind}={delta:.4f}" for kind, delta in zip(KINDS, dens.delta))
        print(f"density: q={rc.q} chi={chi.index} X={rc.x_max} {deltas}")
    write_density_csv(first, _path(rc, "density.csv"), rc.comment())
    write_mc_csv(draws, _path(rc, "mc.csv"), rc.comment())


def cmd_all(rc: RunConfig) -> None:
    _zero_targets(rc)  # refuse a bad --chi before the sieve
    cfg = _sieve_config(rc)
    targets = _density_targets(rc)
    sums, first = combined_run(cfg, targets[0] if targets else None)
    cmd_sieve(rc, sums=sums)
    cmd_zeros(rc)
    cmd_compare(rc)
    if targets:
        cmd_density(rc, first)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorrace",
        description="Prime-factor counting races: sieve, L-function zeros, "
        "explicit-formula comparison and sign-bias densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("sieve", "run the factor sieve; write checkpoints.csv and twists.csv"),
        ("zeros", "scan critical-line zeros; write zeros_q*_chi*.csv caches"),
        ("compare", "explicit-formula comparison; write compare_*.csv and meansq.csv"),
        ("density", "sign-bias densities; write density.csv and mc.csv"),
        ("all", "full pipeline: sieve, zeros, compare, density"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value configuration file")
        for key, (_, _, options) in _OPTIONS.items():
            p.add_argument("--" + key, dest=key, **options)
    return parser


_COMMANDS = {
    "sieve": cmd_sieve,
    "zeros": cmd_zeros,
    "compare": cmd_compare,
    "density": cmd_density,
    "all": cmd_all,
}


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        rc = _build_run_config(args)
        os.makedirs(rc.out, exist_ok=True)
        _COMMANDS[args.command](rc)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissedZeroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MissingInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
