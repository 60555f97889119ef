"""Seeded Hamiltonian generators for the benchmark workloads.

Each generator returns a ``FermionHamiltonian``; the job formats it with
``format_fermion_file`` and hands the pipeline only that text. The same
seed always yields the same terms and coefficients. Coefficients are drawn
from a ``random.Random(seed)`` stream, never from the global generator.
"""

from __future__ import annotations

import random

from fermicode import cli
from fermicode.transform import FermionHamiltonian, FermionTerm


def hubbard(seed: int, rows: int, cols: int) -> FermionHamiltonian:
    """The paper's spin-doubled Hubbard lattice.

    Seed 0 is the published model (t = U = 1); other seeds draw t and U from
    [0.5, 1.5], which leaves every output count unchanged.
    """
    if seed == 0:
        t, u = 1.0, 1.0
    else:
        rng = random.Random(seed)
        t, u = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    return cli.hubbard_hamiltonian(rows, cols, t, u)


def molecular(seed: int, orbitals: int) -> FermionHamiltonian:
    """Every spin- and particle-conserving one- and two-body term.

    Modes 1..orbitals are spin up, the next ``orbitals`` spin down. One-body
    terms c+_p c_q couple modes of one spin; two-body terms
    c+_p c+_q c_r c_s (p < q, r < s) couple pairs with the same spin content.
    Coefficients are random reals, symmetric under swapping creation and
    annihilation sides, so the Hamiltonian is hermitian.
    """
    rng = random.Random(seed)
    n = 2 * orbitals
    spins = (range(1, orbitals + 1), range(orbitals + 1, n + 1))
    terms = []
    for block in spins:
        for p in block:
            for q in block:
                if p <= q:
                    c = rng.uniform(-1.0, 1.0)
                    terms.append(FermionTerm.of(c, (p, True), (q, False)))
                    if p != q:
                        terms.append(FermionTerm.of(c, (q, True), (p, False)))
    pairs = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]

    def spin_content(pair):
        return sorted(m > orbitals for m in pair)

    for a, (p, q) in enumerate(pairs):
        for b in range(a, len(pairs)):
            r, s = pairs[b]
            if spin_content((p, q)) != spin_content((r, s)):
                continue
            c = rng.uniform(-1.0, 1.0)
            terms.append(FermionTerm.of(c, (p, True), (q, True), (r, False), (s, False)))
            if a != b:
                terms.append(
                    FermionTerm.of(c, (r, True), (s, True), (p, False), (q, False))
                )
    return FermionHamiltonian(n, tuple(terms))


def two_particle(seed: int, modes: int) -> FermionHamiltonian:
    """All one-body terms plus all density-density terms n_i n_j (i < j)."""
    rng = random.Random(seed)
    terms = []
    for p in range(1, modes + 1):
        for q in range(p, modes + 1):
            c = rng.uniform(-1.0, 1.0)
            terms.append(FermionTerm.of(c, (p, True), (q, False)))
            if p != q:
                terms.append(FermionTerm.of(c, (q, True), (p, False)))
    for i in range(1, modes + 1):
        for j in range(i + 1, modes + 1):
            c = rng.uniform(-1.0, 1.0)
            terms.append(FermionTerm.of(c, (i, True), (i, False), (j, True), (j, False)))
    return FermionHamiltonian(modes, tuple(terms))


GENERATORS = {"hubbard": hubbard, "molecular": molecular, "two_particle": two_particle}
