"""Command-line front end: model generators, transform and verification runs.

Subcommands

  gen-model      write a fermionic Hamiltonian file for a builtin model
  transform      map a Hamiltonian through a code and write the Pauli file
  verify         transform and check the result against the exact action of
                 the input Hamiltonian (before any segment dressing) on a
                 chosen occupation basis
  validate-code  round-trip / decode-image / one-to-one report for a code

Through a segment code, the Hamiltonian as given, in any operator order, is
dressed by each term's net gain per segment unless ``--no-adjust`` is set.

Exit codes: 0 success, 1 verification or hermiticity failure, 2 input error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys

from .bitmath import DEFAULT_BUDGET, BoolPoly, ascii_real
from .codes import (
    Code,
    concat,
    enumerate_basis,
    load_code,
    parse_basis_spec,
    validate_code,
)
from .errors import (
    BudgetError,
    DimensionError,
    FermicodeError,
    InputFormatError,
    NonFiniteError,
    NonHermitianError,
)
from .fock_oracle import verify_equivalence
from .transform import (
    FermionHamiltonian,
    FermionTerm,
    adjust_for_segments,
    format_fermion_file,
    parse_fermion_file,
    transform_hamiltonian,
)


def hubbard_hamiltonian(
    rows: int = 2,
    cols: int = 5,
    t: float = 1.0,
    u: float = 1.0,
    periodic_lateral: bool = True,
    *,
    budget: int = DEFAULT_BUDGET,
) -> FermionHamiltonian:
    """Hubbard model on a rows x cols grid with spin doubling.

    Modes 1..rows*cols are spin-up sites (row-major), the next rows*cols
    spin-down. Hopping -t acts along grid edges in both directions and both
    spin sectors; the lateral direction closes periodically when requested.
    Interaction +u couples each site's two spins. The model has four hopping
    terms per edge and one interaction per site; more than ``budget``
    (default ``DEFAULT_BUDGET``) raises ``BudgetError`` before any is built.
    """
    sites = rows * cols
    wrap = rows if periodic_lateral and cols > 2 else 0
    count = 4 * (rows * (cols - 1) + (rows - 1) * cols + wrap) + sites
    if count > budget:
        raise BudgetError(
            f"hubbard model {rows}x{cols} has {count} terms, over the budget of {budget}"
        )

    def site(r: int, c: int) -> int:
        return r * cols + c + 1

    edges = set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.add((site(r, c), site(r, c + 1)))
            if r + 1 < rows:
                edges.add((site(r, c), site(r + 1, c)))
        if periodic_lateral and cols > 2:
            edges.add((site(r, 0), site(r, cols - 1)))
    terms = []
    for a, b in sorted(edges):
        for offset in (0, sites):
            i, j = a + offset, b + offset
            terms.append(FermionTerm.of(-t, (i, True), (j, False)))
            terms.append(FermionTerm.of(-t, (j, True), (i, False)))
    for j in range(1, sites + 1):
        terms.append(
            FermionTerm.of(u, (j, True), (j, False), (sites + j, True), (sites + j, False))
        )
    return FermionHamiltonian(2 * sites, tuple(terms))


def h2_hamiltonian(
    h11: float, h22: float, h1331: float, h2442: float, h1221: float, h1212: float
) -> FermionHamiltonian:
    """Minimal-basis two-electron molecular Hamiltonian on four modes.

    Modes 1, 2 carry one spin sector and 3, 4 the other; the exchange terms
    mix the sectors pairwise, keeping each sector's particle count fixed.
    """

    def cr(m):
        return (m, True)

    def an(m):
        return (m, False)

    terms = [
        FermionTerm.of(-h11, cr(1), an(1)),
        FermionTerm.of(-h11, cr(3), an(3)),
        FermionTerm.of(-h22, cr(2), an(2)),
        FermionTerm.of(-h22, cr(4), an(4)),
        FermionTerm.of(h1331, cr(1), cr(3), an(3), an(1)),
        FermionTerm.of(h2442, cr(2), cr(4), an(4), an(2)),
        FermionTerm.of(h1221, cr(1), cr(4), an(4), an(1)),
        FermionTerm.of(h1221, cr(3), cr(2), an(2), an(3)),
        FermionTerm.of(h1221 - h1212, cr(1), cr(2), an(2), an(1)),
        FermionTerm.of(h1221 - h1212, cr(3), cr(4), an(4), an(3)),
        FermionTerm.of(h1212, cr(1), cr(4), an(3), an(2)),
        FermionTerm.of(h1212, cr(2), cr(3), an(4), an(1)),
        FermionTerm.of(h1212, cr(1), cr(3), an(4), an(2)),
        FermionTerm.of(h1212, cr(2), cr(4), an(3), an(1)),
    ]
    return FermionHamiltonian(4, tuple(terms))


def h2_code() -> Code:
    """Two-qubit code for the four-mode molecular model.

    Concatenation of two single-qubit blocks, each storing one spin sector's
    single particle position: decode (w+1, w), encode picks the second mode.
    """
    block = Code(
        n_modes=2,
        n_qubits=1,
        encode=(BoolPoly.from_text(2, "x2"),),
        decode=(BoolPoly.from_text(1, "1 + x1"), BoolPoly.from_text(1, "x1")),
        kind="custom",
    )
    return concat(block, block)


_MODELS = ("hubbard", "h2")
_H2_COEFFS = ("h11", "h22", "h1331", "h2442", "h1221", "h1212")
_FLOAT_FLAGS = {"--t", "--u", "--tol", *(f"--{name}" for name in _H2_COEFFS)}


def _load_hamiltonian(args, budget: int = DEFAULT_BUDGET) -> FermionHamiltonian:
    """Read ``--hamiltonian`` or build ``--model``. A Hubbard model is refused
    above ``DEFAULT_BUDGET`` terms, or above ``budget`` when that is larger: a
    smaller ``--budget`` bounds the transform's sums, not the size of its input."""
    if (args.hamiltonian is None) == (args.model is None):
        raise InputFormatError("provide exactly one of --hamiltonian or --model")
    if args.hamiltonian is not None:
        try:
            with open(args.hamiltonian) as fh:
                return parse_fermion_file(fh.read())
        except OSError as exc:
            raise InputFormatError(f"cannot read {args.hamiltonian!r}: {exc}") from exc
    if args.model == "hubbard":
        return hubbard_hamiltonian(
            args.rows, args.cols, args.t, args.u, not args.open_lateral,
            budget=max(budget, DEFAULT_BUDGET),
        )
    return h2_hamiltonian(args.h11, args.h22, args.h1331, args.h2442, args.h1221, args.h1212)


def _cmd_gen_model(args) -> int:
    h = _load_hamiltonian(args)
    text = format_fermion_file(h)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _replace(out, text: str) -> None:
    """Make ``text`` all of ``out``; only a regular file truncates (not a pipe or /dev/null)."""
    if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
        out.seek(0)
        out.truncate()
    out.write(text)
    out.flush()


def _cmd_run(args) -> int:
    """``transform`` and ``verify``: check the Hamiltonian, the code, the basis and
    ``--out`` before any work. ``--out`` is opened untruncated and replaced where
    it is written, so a run that fails first leaves an existing file as it was."""
    h = _load_hamiltonian(args, args.budget)
    code = load_code(args.code)
    if h.n_modes != code.n_modes:  # also before the dressing reads the code's segments
        raise DimensionError(f"Hamiltonian has {h.n_modes} modes, code encodes {code.n_modes}")
    if args.verify:
        basis = enumerate_basis(parse_basis_spec(args.basis, code.n_modes), args.budget)
    report_only = args.command == "verify"
    with open(args.out, "a") if args.out else contextlib.nullcontext() as out:
        prepared = h
        if code.segments and not args.no_adjust:
            prepared = adjust_for_segments(h, code.segments, code.segment_weight, args.budget)
        try:
            hq = transform_hamiltonian(code, prepared, budget=args.budget)
        except NonHermitianError as exc:
            if not report_only:
                raise
            print(f"verification failed: {exc}")
            return 1
        if not report_only:
            if out:
                _replace(out, hq.serialize())
            terms, gates = hq.stats()
            print(f"qubits={hq.n} terms={terms} gates={gates}")
        if not args.verify:
            return 0
        report = verify_equivalence(code, h, hq, basis, tol=args.tol)
        if report_only and out:
            _replace(out, report.to_json() + "\n")
        print(report.summary())
        return 0 if report.ok else 1


def _cmd_validate_code(args) -> int:
    code = load_code(args.code)
    spec = parse_basis_spec(args.basis, code.n_modes)
    report = validate_code(
        code, spec, budget=args.budget, sample=args.sample, seed=args.seed
    )
    print(report.summary())
    return 0 if report.round_trip_ok else 1


def _finite_float(text: str) -> float:
    try:
        return ascii_real(text)
    except NonFiniteError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _decimal_int(text: str) -> int:
    """ASCII decimal digits after an optional minus sign, as in the compact names."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    value = _decimal_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--hamiltonian", help="fermionic Hamiltonian file")
    p.add_argument("--model", choices=_MODELS, help="builtin model generator")
    p.add_argument("--rows", type=_positive_int, default=2)
    p.add_argument("--cols", type=_positive_int, default=5)
    p.add_argument("--t", type=_finite_float, default=1.0)
    p.add_argument("--u", type=_finite_float, default=1.0)
    p.add_argument("--open-lateral", action="store_true", help="no periodic wrap")
    for name in _H2_COEFFS:
        p.add_argument(f"--{name}", type=_finite_float, default=0.0)


def _join_negative_floats(argv: list[str]) -> list[str]:
    """Write ``--t -2.5E+1`` as ``--t=-2.5E+1``: argparse reads a value that
    starts with ``-`` as an option unless it is a plain decimal."""
    out: list[str] = []
    for arg in argv:
        negative = len(arg) > 1 and arg[0] == "-" and arg[1] in "0123456789."
        if negative and out and out[-1] in _FLOAT_FLAGS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _add_run_args(p: argparse.ArgumentParser):
    p.add_argument("--code", required=True, help="code-spec file or builtin name")
    p.add_argument("--out", help="output path")
    p.add_argument(
        "--budget", type=_positive_int, default=DEFAULT_BUDGET,
        help="monomial/term/basis-state budget",
    )
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="verification tolerance")
    p.add_argument(
        "--no-adjust",
        action="store_true",
        help="skip the automatic segment-code Hamiltonian dressing",
    )
    p.add_argument("--basis", help="basis spec, e.g. '1-10:2;11-20:2'")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fermicode",
        description="Map second-quantized fermionic Hamiltonians to qubit operators "
        "through binary codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="write a builtin model Hamiltonian")
    _add_model_args(p)
    p.add_argument("--out", help="output path (stdout otherwise)")
    p.set_defaults(fn=_cmd_gen_model)

    p = sub.add_parser("transform", help="transform a Hamiltonian into Pauli form")
    _add_model_args(p)
    _add_run_args(p)
    p.add_argument("--verify", action="store_true", help="verify after transforming")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("verify", help="check a transform against the exact action")
    _add_model_args(p)
    _add_run_args(p)
    p.set_defaults(fn=_cmd_run, verify=True)

    p = sub.add_parser("validate-code", help="check code round-trips and images")
    p.add_argument("--code", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--sample", type=_positive_int, default=None)
    p.add_argument("--seed", type=_decimal_int, default=0)
    p.set_defaults(fn=_cmd_validate_code)

    args = parser.parse_args(_join_negative_floats(sys.argv[1:] if argv is None else argv))
    if getattr(args, "verify", False) and not args.basis:
        parser.error("verification needs --basis")
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except NonHermitianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FermicodeError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
