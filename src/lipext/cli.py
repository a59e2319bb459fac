"""File-driven command line: validate, extend, verify, energy, demo.

Exit codes: 0 success, 1 input or parameter error, 2 property-check failure.
All reports are JSON; numbers pass through Python's shortest round-trip float
formatting, so identical inputs, flags and seed give byte-identical outputs.
An input that cannot be read or decoded and an output that cannot be written
end in exit 1 with a JSON error, like any other input or parameter error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (InstanceValidationError, ParameterError, ScheduleTooShallow,
                     positive_real)
from .metric import MetricInstance, _check_radii, instance_from_arrays, validate_instance
from .extension import (cutoff_support, extend, mcshane_upper_many,
                        schedule_for_instance, truncate_bounded)
from .verification import (check_locality_preservation, mcshane_comparison,
                           run_suite)
from .energy import (check_extension_energy, check_restriction_monotonicity,
                     validate_measure)

SCHEMA_VERSION = "1"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract reserves 2 for property failures."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write output: {exc}") from exc


def _fail(payload: dict) -> int:
    sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")
    return 1


def _load_raw(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read input: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError, or an integer of too many digits
        raise ParameterError(f"input is not valid JSON: {exc}") from exc


def _parse_queries(instance: MetricInstance, spec: str | None) -> np.ndarray | list[int]:
    if spec == "all":
        return np.arange(instance.n, dtype=np.intp)
    if spec is None:
        mask = np.ones(instance.n, dtype=bool)
        mask[instance.subset] = False
        rest = np.flatnonzero(mask)
        return rest if len(rest) else np.arange(instance.n, dtype=np.intp)
    try:
        idx = [int(tok) for tok in spec.split(",") if tok != ""]
    except ValueError as exc:
        raise ParameterError(f"bad --queries list: {exc}") from exc
    if not idx:
        raise ParameterError("empty --queries list")
    return idx


def _parse_radii(spec: str) -> list[float]:
    try:
        radii = [float(tok) for tok in spec.split(",") if tok != ""]
    except ValueError as exc:
        raise ParameterError(f"bad --radii list: {exc}") from exc
    return _check_radii(radii).tolist()


def cmd_validate(args) -> int:
    raw = _load_raw(args.input)
    instance = validate_instance(raw)
    if raw.get("masses") is not None:
        validate_measure(instance, raw["masses"], 1.0)
    doc = {"schema_version": SCHEMA_VERSION, "kind": "validation", "ok": True,
           "n": instance.n, "subset_size": int(len(instance.subset)),
           "lipschitz": instance.lipschitz_L,
           "lipschitz_computed": instance.lipschitz_computed,
           "has_masses": raw.get("masses") is not None}
    _emit(doc, getattr(args, "output", None))
    return 0


def cmd_extend(args) -> int:
    instance = validate_instance(_load_raw(args.input))
    positive_real("--epsilon", args.epsilon)
    if args.anchor is not None:
        positive_real("--anchor", args.anchor)
    queries = _parse_queries(instance, args.queries)
    build_eps = args.epsilon / 2.0 if args.cutoff else args.epsilon

    schedule = schedule_for_instance(instance, build_eps, queries, args.anchor)
    field = extend(instance, schedule, queries)
    if args.bounded is not None:
        field = truncate_bounded(field, args.bounded)
    if args.cutoff:
        # The support cutoff expects a bounded extension; without an explicit
        # bound, clamp at sup |g| (the tightest bound keeping the restriction).
        if args.bounded is None and field.g_abs_max > 0.0:
            field = truncate_bounded(field, field.g_abs_max)
        field = cutoff_support(field, instance, args.epsilon)

    doc = {"schema_version": SCHEMA_VERSION, "kind": "extension_field",
           "params": {"epsilon": args.epsilon,
                      "epsilon_effective": schedule.eps_eff if schedule else 0.0,
                      "anchor": args.anchor, "bounded": args.bounded,
                      "cutoff": bool(args.cutoff),
                      "schedule_id": schedule.schedule_id if schedule else None},
           "schedule": schedule.to_triples() if schedule else None,
           "entries": field.to_json_entries()}
    _emit(doc, args.output)
    return 0


def cmd_verify(args) -> int:
    instance = validate_instance(_load_raw(args.input))
    report = run_suite(instance, args.epsilon, xi=args.xi, r_bar=args.rbar,
                       seed=args.seed)
    _emit(report.to_json(), args.output)
    return 0 if report.passed else 2


def cmd_energy(args) -> int:
    raw = _load_raw(args.input)
    instance = validate_instance(raw)
    radii = _parse_radii(args.radii)
    measure = validate_measure(instance, raw.get("masses"), args.p)

    h = mcshane_upper_many(instance, instance.lipschitz_L,
                           np.arange(instance.n, dtype=np.intp))
    mono_check, reports = check_restriction_monotonicity(instance, h, measure, radii)
    ext_check, payload = check_extension_energy(instance, measure, radii,
                                                args.xi, args.epsilon)
    doc = {"schema_version": SCHEMA_VERSION, "kind": "energy_report",
           "params": {"p": measure.p, "radii": radii, "xi": args.xi,
                      "epsilon": args.epsilon},
           "note": ("integrand-level verification; the relaxed functionals "
                    "over approximating sequences are out of scope"),
           "checks": [mono_check.to_json(), ext_check.to_json()],
           "restriction_reports": [rep.to_json() for rep in reports],
           "extension_energy": payload}
    _emit(doc, args.output)
    return 0 if mono_check.passed and ext_check.passed else 2


def grid_instance(n: int) -> MetricInstance:
    """The unit-interval grid with data on its endpoints: the sharpness example."""
    if not 2 <= n <= 10_000:    # checked first: the demo's pair scans are quadratic in n
        raise ParameterError("grid needs from 2 to 10000 points")
    coords = [[i / (n - 1)] for i in range(n)]
    return instance_from_arrays(coords=coords, subset=[0, n - 1], values=[0.0, 1.0])


def _demo_radii(n: int) -> list[float]:
    h = 1.0 / (n - 1)
    cand = [2.0 * h, max(0.3, 3.0 * h), max(0.5, 4.5 * h)]
    radii = [cand[0]]
    for c in cand[1:]:
        radii.append(c if c > radii[-1] else radii[-1] * 1.5)
    return radii


def cmd_demo_counterexample(args) -> int:
    if not 0 < args.xi < 1:
        raise ParameterError("--xi must lie in (0, 1): at xi >= 1 McShane meets the bound too")
    if args.epsilon <= 0:
        raise ParameterError("--epsilon must be positive")
    instance = grid_instance(args.n)
    r_bar = 0.5
    schedule = schedule_for_instance(instance, args.epsilon, locality=(r_bar, args.xi))
    field = extend(instance, schedule)
    radii = _demo_radii(args.n)
    frag = mcshane_comparison(instance, radii, args.epsilon, field=field,
                              centers=[0, args.n - 1])
    loc = check_locality_preservation(instance, field, [0], r_bar, args.xi)

    print(f"grid n={args.n}, subset endpoints, epsilon={args.epsilon}, "
          f"xi={args.xi}, r_bar={r_bar}")
    print(f"scheduled locality radius r = {loc.witness['r']!r} (k = {loc.witness['k']})")
    print(f"{'radius':>12} {'Lip(McShane)':>14} {'Lip(extension)':>15}   (center 0)")
    row0 = frag["centers"][0]
    for rr, a, b in zip(row0["radii"], row0["mcshane"], row0["extension"]):
        print(f"{rr:>12.6g} {a:>14.6g} {b:>15.6g}")
    print(f"locality check at scheduled radius: Lip(f, B_r(0)) = "
          f"{loc.witness['lip_f']!r} vs bound {loc.witness['lip_g_plus_xi']!r}")

    mcshane_flat = all(abs(v - 1.0) <= 1e-12 for v in row0["mcshane"])
    ok = loc.passed and mcshane_flat
    print("RESULT:", "PASS" if ok else "FAIL",
          "(McShane local constant stays 1; extension beats xi at the scheduled radius)"
          if ok else "")
    return 0 if ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="lipext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("extend", help="evaluate the penalized extension")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--queries", default=None,
                   help="'all' or comma list; default: points outside the subset")
    p.add_argument("--anchor", type=float, default=None)
    p.add_argument("--bounded", type=float, default=None,
                   help="clamp values to [-B, B]")
    p.add_argument("--cutoff", action="store_true",
                   help="build at epsilon/2 and multiply by the support bump")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verify", help="run the full property-check battery")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--xi", type=float, default=0.1)
    p.add_argument("--rbar", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("energy", help="scale-indexed energy comparisons")
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--radii", required=True, help="comma list, strictly increasing")
    p.add_argument("--xi", type=float, default=0.05)
    p.add_argument("--epsilon", type=float, default=None,
                   help="budget for the extension side; default: the instance constant")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("demo-counterexample",
                       help="endpoint-data grid: McShane keeps slope 1, the "
                            "extension goes below xi")
    p.add_argument("--n", type=int, default=1001)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--xi", type=float, default=0.1)
    p.set_defaults(func=cmd_demo_counterexample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InstanceValidationError as exc:
        return _fail(exc.to_json())
    except ScheduleTooShallow as exc:
        return _fail({"error": str(exc),
                      "required_span_low": exc.required_span_low,
                      "required_span_high": exc.required_span_high})
    except ParameterError as exc:
        return _fail({"error": str(exc)})


if __name__ == "__main__":
    sys.exit(main())
