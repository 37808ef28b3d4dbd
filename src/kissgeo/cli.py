"""File-driven command line over the library.

Subcommands: dist, classify, check, embed, lightcone, spheres, complete,
witness. Inputs are JSON files ("-" reads stdin); every document, errors
included, goes to stdout (there is no output option), diagnostics to stderr.
Exit codes: 0 success or feasible, 1 certified infeasible / not embeddable /
not chordal (witness on stdout), 2 malformed input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import completion, embed, io, kissing, lightcone, spheres
from .lightcone import AlignmentError
from .numkernel import GramInfeasibleError, NonConvergenceError, SingularPivotError

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3


def _read_json(path: str):
    """The document at path ("-" for stdin). Text that does not decode or
    parse, nesting beyond the parser's depth included, is an input error."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise io.SchemaError(str(exc)) from None


def _emit(payload) -> None:
    sys.stdout.write(io.format_json(payload) + "\n")


def _witness_payload(witness) -> object:
    """A Certificate's witness: None, or a Minor, Rank or Inertia witness."""
    if witness is None:
        return None
    if isinstance(witness, embed.MinorWitness):
        payload = {"type": "minor", "subset": list(witness.subset), "signed_minor": witness.signed_minor}
        if witness.exponent:
            payload["exponent"] = witness.exponent
        return payload
    if isinstance(witness, embed.RankWitness):
        return {"type": "rank", "rank": witness.rank, "bound": witness.bound}
    payload = {
        "type": "inertia",
        "inertia": list(witness.inertia),
        "requirement": witness.requirement,
    }
    if not witness.exact:
        payload["exact"] = False
    return payload


def _certificate_payload(certificate: embed.Certificate, n: int) -> dict:
    return {
        "verdict": certificate.verdict,
        "method": certificate.method,
        "n": n,
        "witness": _witness_payload(certificate.witness),
    }


def _cmd_dist(args) -> int:
    n, sphere_set = io.load_sphere_set(_read_json(args.input))
    rows = np.sqrt(kissing.distance_matrix(sphere_set)).tolist()
    _emit({"n": n, "d": rows})
    return EXIT_OK


def _cmd_classify(args) -> int:
    n, sphere_set = io.load_sphere_set(_read_json(args.input))
    pairs = []
    for i in range(len(sphere_set)):
        for j in range(i + 1, len(sphere_set)):
            relation = kissing.classify_pair(sphere_set[i], sphere_set[j])
            pairs.append({"i": i, "j": j, "class": relation.value})
    _emit({"n": n, "pairs": pairs})
    return EXIT_OK


def _cmd_check(args) -> int:
    diagonal = -1.0 if args.mode == "spheres" else 0.0
    _, matrix = io.load_matrix(_read_json(args.input), diagonal=diagonal)
    if args.mode == "kissing":
        certificate = embed.check_kissing(matrix, args.n, args.method)
    elif args.mode == "euclidean":
        certificate = embed.check_euclidean(matrix, args.n, args.method)
    else:
        certificate = spheres.check_spheres(matrix, args.n, args.method)
    _emit(_certificate_payload(certificate, args.n))
    return EXIT_OK if certificate.embeddable else EXIT_INFEASIBLE


def _cmd_embed(args) -> int:
    _, matrix = io.load_matrix(_read_json(args.input))
    try:
        realized = embed.construct_embedding(matrix, args.n)
    except GramInfeasibleError as exc:
        _emit(_certificate_payload(embed.refusal(exc), args.n))
        return EXIT_INFEASIBLE
    _emit(io.dump_sphere_set(args.n, realized))
    return EXIT_OK


def _cmd_lightcone(args) -> int:
    payload = _read_json(args.input)
    if args.inverse:
        n, vectors = io.load_vectors(payload)
        try:
            recovered = lightcone.from_lightcone(vectors)
        except lightcone.InverseMapError as exc:
            raise ValueError(f"vector {exc.row}: {exc}") from exc
        _emit(io.dump_sphere_set(n, recovered))
        return EXIT_OK
    n, sphere_set = io.load_sphere_set(payload)
    _emit(io.dump_vectors(n, lightcone.to_lightcone(sphere_set, n)))
    return EXIT_OK


def _cmd_spheres(args) -> int:
    n, sphere_set = io.load_euclidean_spheres(_read_json(args.input))
    matrix = spheres.separation_matrix(sphere_set)
    payload = io.dump_matrix(matrix, diagonal=-1.0)
    payload["n"] = n
    payload["hyperboloid"] = [spheres.hyperboloid_embed(s).tolist() for s in sphere_set]
    _emit(payload)
    return EXIT_OK


def _cmd_complete(args) -> int:
    graph = io.load_graph(_read_json(args.input))
    result = completion.complete_chordal(graph, args.n)
    if result.verdict == completion.COMPLETED:
        payload = {
            "verdict": result.verdict,
            "d2": result.full_matrix.tolist(),
            "embedding": result.embedding.tolist(),
        }
        _emit(payload)
        return EXIT_OK
    if result.verdict == completion.NOT_CHORDAL:
        _emit({"verdict": result.verdict, "witness_cycle": list(result.witness)})
        return EXIT_INFEASIBLE
    witness = result.witness
    if isinstance(witness, completion.CliqueCheck):
        payload = {
            "verdict": result.verdict,
            "clique": list(witness.clique),
            "certificate": _certificate_payload(witness.certificate, args.n),
            "diagnostic": witness.diagnostic,
        }
    else:
        payload = {"verdict": result.verdict, "diagnostic": str(witness)}
    _emit(payload)
    return EXIT_INFEASIBLE


def _cmd_witness(args) -> int:
    graph = io.load_graph(_read_json(args.input))
    chordality = completion.is_chordal(graph)
    if chordality.chordal:
        _emit({"error": "graph is chordal; no witness exists"})
        return EXIT_INFEASIBLE
    lengths = completion.non_chordal_witness(graph)
    payload = io.dump_graph(lengths)
    payload["cycle"] = list(chordality.cycle)
    _emit(payload)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kissgeo",
        description="Distance geometry for kissing spheres: distances, certificates, "
        "embeddings, lightcone maps, and chordal completion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, needs_n: bool = False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input", help="input JSON path, or - for stdin")
        if needs_n:
            cmd.add_argument("--n", type=int, required=True, help="ambient dimension")
        cmd.set_defaults(handler=handler)
        return cmd

    add("dist", _cmd_dist, "pairwise distance matrix of a kissing-sphere set")
    add("classify", _cmd_classify, "pair classification of a kissing-sphere set")
    check = add("check", _cmd_check, "embeddability certificate for a matrix file", needs_n=True)
    check.add_argument("--mode", choices=["kissing", "euclidean", "spheres"], required=True)
    check.add_argument("--method", choices=["minors", "inertia"], default="inertia")
    add("embed", _cmd_embed, "recover a kissing-sphere set from a distance matrix", needs_n=True)
    cone = add("lightcone", _cmd_lightcone, "map sphere sets to null vectors and back")
    cone.add_argument("--inverse", action="store_true", help="map vectors back to spheres")
    add("spheres", _cmd_spheres, "separation matrix and pseudosphere vectors of Euclidean spheres")
    add("complete", _cmd_complete, "complete a chordal length graph", needs_n=True)
    add("witness", _cmd_witness, "counterexample lengths for a non-chordal graph")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (io.SchemaError, OSError) as exc:
        print(f"kissgeo: input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (
        embed.RealizationError,
        AlignmentError,
        GramInfeasibleError,
        NonConvergenceError,
        SingularPivotError,
    ) as exc:
        _emit({"error": str(exc)})
        print(f"kissgeo: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError) as exc:
        print(f"kissgeo: invalid request: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
