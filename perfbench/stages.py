"""The pipeline of one benchmark job; ``job.py`` imports it and calls ``run``.

A job pays what one ``fermicode transform --verify`` invocation pays:
interpreter start, ``import fermicode``, a fresh ``Code`` (empty per-code
cache), then the CLI's sequence ``load_code`` -> ``parse_fermion_file`` ->
(``normal_order_blocks`` -> ``adjust_for_segments`` when the code has
segments) -> ``transform_hamiltonian`` -> ``serialize`` ->
``parse_basis_spec``/``enumerate_basis`` -> ``verify_equivalence``. The
pipeline only sees the generated Hamiltonian text. Every stage is looked up
on its module at call time, so a traced job can replace it with a span
recorder. Stage times are taken between ``hostspeed.Sampler`` marks and
reported both as wall time (``raw_<stage>``) and normalized for the host's
speed (``<stage>``).
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import sys
import time
from pathlib import Path

import numpy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fermicode import codes, fock_oracle, transform  # noqa: E402

import hostspeed  # noqa: E402
import models  # noqa: E402
import spans  # noqa: E402


def corrupted(hq):
    """Copy of ``hq`` with the sign of its first coefficient flipped."""
    terms = dict(hq.terms)
    first = min(terms, key=lambda s: s.sort_key())
    terms[first] = -terms[first]
    return type(hq)(hq.n, terms, hq.prune_epsilon)


def stage_times(name: str, times: tuple) -> dict:
    """``name`` is the normalized time (see hostspeed.py), ``raw_<name>`` the wall time."""
    raw, normalized = times
    return {name: normalized, "raw_" + name: raw}


def pipeline(spec: dict, text: str, sampler: hostspeed.Sampler, t0: tuple) -> dict:
    """Run the CLI sequence from mark ``t0``; return stage times, sizes and the report."""
    code = codes.load_code(spec["code"])
    h = transform.parse_fermion_file(text)
    normal_order_out = dress_out = 0
    if code.segments:
        blocked = transform.normal_order_blocks(h)
        normal_order_out = len(blocked.terms)
        h = transform.adjust_for_segments(blocked, code.segments, code.segment_weight)
        dress_out = len(h.terms)
    hq = transform.transform_hamiltonian(code, h)
    if spec["corrupt"]:
        hq = corrupted(hq)
    out = hq.serialize()
    t1 = sampler.mark()
    basis = codes.enumerate_basis(codes.parse_basis_spec(spec["basis"], code.n_modes))
    report = fock_oracle.verify_equivalence(code, h, hq, basis)
    t2 = sampler.mark()
    pauli_terms, gates = hq.stats()
    data = out.encode()
    return {
        **stage_times("transform_s", sampler.stage(t0, t1)),
        **stage_times("verify_s", sampler.stage(t1, t2)),
        **stage_times("pipeline_s", sampler.stage(t0, t2)),
        "qubits": hq.n,
        "pauli_terms": pauli_terms,
        "gates": gates,
        "sha256": hashlib.sha256(data).hexdigest(),
        "serialize_bytes": len(data),
        "status": report.status,
        "max_deviation": report.max_deviation,
        "states_checked": report.states_checked,
        "fermion_terms": len(h.terms),
        "normal_order_out": normal_order_out,
        "dress_out": dress_out,
    }


def layer_metrics(tracer: spans.Tracer, lay: dict, result: dict) -> dict:
    """Per-layer numbers of one traced job (medians are taken by run.py)."""

    def calls(name):
        return lay.get(name, {}).get("calls", 0)

    def incl(name):
        return lay.get(name, {}).get("incl_s", 0.0)

    def self_s(name):
        return lay.get(name, {}).get("self_s", 0.0)

    amplitude_ops = result["states_checked"] * (result["fermion_terms"] + result["pauli_terms"])
    return {
        "transform.parse_s": incl("transform.parse"),
        "pauli.serialize_s": incl("pauli.serialize"),
        "pauli.serialize_bytes": result["serialize_bytes"],
        "transform.normal_order_s": incl("transform.normal_order"),
        "transform.normal_order.terms_out": result["normal_order_out"],
        "transform.dress_s": incl("transform.dress"),
        "transform.dress.terms_out": result["dress_out"],
        "transform.map_s": incl("transform.map"),
        "transform.map.terms_in": result["fermion_terms"],
        "transform.map.strings_emitted": tracer.strings_emitted,
        "transform.map.merge_ratio": result["pauli_terms"] / max(tracer.strings_emitted, 1),
        "transform.term.calls": calls("transform.term"),
        "transform.term.self_s": self_s("transform.term"),
        "pauli.poly_table.calls": calls("pauli.poly_table"),
        "pauli.poly_table_s": incl("pauli.poly_table"),
        "pauli.extract.calls": calls("pauli.extract"),
        "pauli.extract_s": incl("pauli.extract"),
        "transform.update_operator.calls": calls("transform.update_operator"),
        "transform.update_operator.nonlinear_calls": tracer.nonlinear_updates,
        "transform.update_operator_s": incl("transform.update_operator"),
        "bitmath.compose.calls": calls("bitmath.compose"),
        "bitmath.compose_s": incl("bitmath.compose"),
        "pauli.mul.calls": calls("pauli.mul"),
        "pauli.mul_s": incl("pauli.mul"),
        "pauli.mul.max_terms_out": tracer.max_mul_terms,
        "transform.parity_function.calls": calls("transform.parity_function"),
        "bitmath.poly_sum.calls": calls("bitmath.poly_sum"),
        "bitmath.poly_sum_s": incl("bitmath.poly_sum"),
        "codes.build_s": incl("codes.build"),
        "pauli.check_hermitian_s": incl("pauli.check_hermitian"),
        "fock_oracle.verify_s": incl("fock_oracle.verify"),
        "fock_oracle.self_s": self_s("fock_oracle.verify"),
        "fock_oracle.states_checked": result["states_checked"],
        "fock_oracle.amplitude_ops": amplitude_ops,
        "fock_oracle.ns_per_amplitude_op": self_s("fock_oracle.verify") * 1e9 / amplitude_ops,
        "codes.encode_vec.calls": calls("codes.encode_vec"),
        "codes.encode_vec_s": incl("codes.encode_vec"),
        "codes.decode_vec.calls": calls("codes.decode_vec"),
        "codes.decode_vec_s": incl("codes.decode_vec"),
        "codes.enumerate_basis_s": incl("codes.enumerate_basis"),
        "codes.basis_states": result["states_checked"],
        "cli.model_s": incl("cli.model"),
    }


def run(spec: dict, sampler: hostspeed.Sampler) -> dict:
    """Generate the workload, run the pipeline, return the job's record."""
    tracer = spans.Tracer() if spec["traced"] else None
    spawned = (spec["spawned"], 0.0, 0)
    result: dict = {}
    with tracer if tracer is not None else contextlib.nullcontext():
        m0 = time.perf_counter_ns()
        h = models.GENERATORS[spec["model"]](spec["seed"], **spec["size"])
        text = transform.format_fermion_file(h)
        m1 = time.perf_counter_ns()
        ready = sampler.mark()
        result.update(stage_times("setup_s", sampler.stage(spawned, ready)))
        if tracer is not None:
            tracer.add_span("cli.model", m0, m1)
        result.update(pipeline(spec, text, sampler, ready))
    if tracer is not None:
        lay = tracer.layers()
        result["layers"] = layer_metrics(tracer, lay, result)
        result["self_s"] = {n: row["self_s"] for n, row in lay.items()}
        result["term_us"] = tracer.durations_us("transform.term")
        tracer.write(spec["trace_out"])
    result["numpy"] = numpy.__version__
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result
