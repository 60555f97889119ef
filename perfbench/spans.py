"""Span recorder that wraps fermicode's public entry points from outside.

Each wrapped call becomes one span: name, parent span, start and end. A
function is patched in the namespace its caller looks it up in: ``transform``
imports ``extract``, ``poly_table`` and ``poly_sum`` by name, so those are
replaced in ``fermicode.transform`` (and ``poly_table`` also in
``fermicode.pauli``, where ``extract`` calls it); methods are replaced on
their class. Spans stay in memory until ``write`` dumps them as JSON.

Self time is a span's duration minus the durations of its direct children;
spans never overlap within one process, so that is the time no wrapped
callee covers.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from fermicode import bitmath, codes, fock_oracle, pauli, transform

# (owner, attribute, span name); pipeline stages first, then the kernels.
PATCHES = (
    (codes, "load_code", "codes.build"),
    (transform, "parse_fermion_file", "transform.parse"),
    (transform, "normal_order_blocks", "transform.normal_order"),
    (transform, "adjust_for_segments", "transform.dress"),
    (transform, "transform_hamiltonian", "transform.map"),
    (pauli.QubitOperator, "serialize", "pauli.serialize"),
    (codes, "enumerate_basis", "codes.enumerate_basis"),
    (fock_oracle, "verify_equivalence", "fock_oracle.verify"),
    (transform, "transform_term", "transform.term"),
    (transform, "update_operator", "transform.update_operator"),
    (transform, "parity_function", "transform.parity_function"),
    (transform, "extract", "pauli.extract"),
    (transform, "poly_table", "pauli.poly_table"),
    (pauli, "poly_table", "pauli.poly_table"),
    (transform, "poly_sum", "bitmath.poly_sum"),
    (pauli.QubitOperator, "mul", "pauli.mul"),
    (pauli.QubitOperator, "check_hermitian", "pauli.check_hermitian"),
    (bitmath.BoolPoly, "compose", "bitmath.compose"),
    (codes.Code, "encode_vec", "codes.encode_vec"),
    (codes.Code, "decode_vec", "codes.decode_vec"),
)


class Tracer:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self):
        # Each span is [name, parent index or -1, start ns, end ns].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.strings_emitted = 0
        self.nonlinear_updates = 0
        self.max_mul_terms = 0
        self._linear_by_code: dict[int, bool] = {}

    # -- recording -------------------------------------------------------

    def add_span(self, name: str, start_ns: int, end_ns: int):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, start_ns, end_ns])

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        after = {
            "transform.term": self._after_term,
            "transform.update_operator": self._after_update,
            "pauli.mul": self._after_mul,
        }.get(name)

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_term(self, args, result):
        self.strings_emitted += len(result.terms)

    def _after_update(self, args, result):
        code = args[0]
        linear = self._linear_by_code.get(id(code))
        if linear is None:
            linear = self._linear_by_code[id(code)] = code.encode_is_linear
        if not linear:
            self.nonlinear_updates += 1

    def _after_mul(self, args, result):
        self.max_mul_terms = max(self.max_mul_terms, len(result.terms))

    def __enter__(self):
        for owner, attr, name in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- reading -----------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds.

        Inclusive time counts only the outermost span of a name, so a
        function that re-enters itself is not counted twice.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for idx, (name, parent, start, end) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start - child_ns[idx]) * 1e-9
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][1]
            if up < 0:
                row["incl_s"] += (end - start) * 1e-9
        return dict(out)

    def durations_us(self, name: str) -> list[float]:
        return [(e - s) * 1e-3 for n, _, s, e in self.spans if n == name]

    def write(self, path):
        """Dump every span as ``[name index, parent, start ns, duration ns]``."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[2] for s in self.spans), default=0)
        rows = [[index[n], p, s - t0, e - s] for n, p, s, e in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
