"""Command-line front end.

Subcommands map one-to-one onto the library modules: tree (dipoles and
encodings), spectra (Gram eigensystems and growth), walk (graph chains),
wavelet (filters on the circle), solenoid (dyadic inverse-orbit walks),
and verify (the built-in check suite).

Each command returns its named tables and whether a check failed; run
alone writes them, a metadata block {version, seed, config} followed by
the tables, as CSV (default) or JSON, and picks the exit code.  The
config field is a hash of the parsed arguments, so identical invocations
produce byte-identical output; there are no timestamps anywhere.  Exit
codes: 0 all checks passed, 1 a numeric or statistical check failed, 2
bad input, 3 a computation could not finish (no convergence, a residual
breach, another arithmetic error, or memory exhausted).
"""

from __future__ import annotations

import argparse
import collections
import functools
import hashlib
import json
import math
import sys
from fractions import Fraction
from itertools import chain

import numpy as np

from . import __version__
from .graphs import GraphError, load_graph
from .rng import _MASK, _check_seed
from . import spectra as sp
from . import circle as ci
from . import tree as tr
from . import walks as wk


# ---------------------------------------------------------------- output

def _fmt_float(x: float) -> str:
    # nan (of either sign), inf and -inf print as those words
    return format(x, ".17g")


def _cell_csv(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v) or math.isinf(v):
            return json.dumps(_fmt_float(v))
        return _fmt_float(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return json.dumps(f"{v.numerator}/{v.denominator}")
    return json.dumps(str(v) if not isinstance(v, str) else v)


# the exact cell types whose column prints as %s, per format: JSON quotes every str
_PLAIN_CELLS = {"csv": frozenset((int, str)), "json": frozenset((int,))}
_FLOAT_CELLS = frozenset((float,))


def _rows_text(rows, out_format: str) -> str:
    """A table's rows in out_format, the bytes its per-cell rule gives cell by cell, made by one %.

    A column whose cells are all exactly int (in CSV, int or str) formats
    as %s (their str), and one of exact floats as %.17g (_fmt_float's
    format), in JSON only when every cell is finite, since JSON quotes
    nan and inf.  Any other column, bool and numpy scalars included, is
    first turned into strings by the format's per-cell rule, _cell_csv or
    _json_scalar.  Rows of unequal length raise ValueError.
    """
    json_rows = out_format == "json"
    columns = list(zip(*rows, strict=True))
    spec = []
    for j, column in enumerate(columns):
        kinds = set(map(type, column))
        if kinds <= _PLAIN_CELLS[out_format]:
            spec.append("%s")
        elif kinds == _FLOAT_CELLS and (not json_rows or all(map(math.isfinite, column))):
            spec.append("%.17g")
        else:
            spec.append("%s")
            columns[j] = list(map(_json_scalar if json_rows else _cell_csv, column))
    cells = tuple(chain.from_iterable(zip(*columns)))
    if json_rows:
        return ",\n".join(["        [" + ", ".join(spec) + "]"] * len(rows)) % cells
    return "\n".join([",".join(spec)] * len(rows)) % cells


def _emit(meta: dict, tables: list, out_format: str, path) -> None:
    if out_format == "json":
        meta_items = ",".join(f"\n    {json.dumps(k)}: {_json_scalar(v)}" for k, v in meta.items())
        table_items = ",".join(
            f"\n    {json.dumps(name)}: {{\n      \"columns\": [{', '.join(map(json.dumps, columns))}],\n"
            f"      \"rows\": [\n{_rows_text(rows, out_format)}\n      ]\n    }}"
            for name, columns, rows in tables
        )
        text = f"{{\n  \"meta\": {{{meta_items}\n  }},\n  \"tables\": {{{table_items}\n  }}\n}}\n"
    else:
        lines = [f"# {k}={_cell_csv(v)}" for k, v in meta.items()]
        for name, columns, rows in tables:
            lines.append(f"# table={name}")
            lines.append(",".join(columns))
            if rows:
                lines.append(_rows_text(rows, out_format))
        text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(args) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "output")}
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return {
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "config": hashlib.sha256(blob).hexdigest()[:12],
    }


def _word_label(w: str, out_format: str) -> str:
    # the origin prints as "-" in CSV; JSON keeps the empty string
    if w == "":
        return "" if out_format == "json" else "-"
    return w


def _parse_word(text: str) -> str:
    return "" if text == "-" else tr.check_word(text)


# ---------------------------------------------------------------- tree

def _cmd_tree_dipole(args) -> tuple:
    x = _parse_word(args.x)
    if x == "":
        raise ValueError("the root carries no dipole; pick a nonempty word")
    if args.depth < len(x):
        raise ValueError("depth must reach the word")
    g = tr.tree_graph(args.depth)
    column = tr._dipole_column(x, g)
    defect = tr._dipole_defect(g, (x,), column)[0]  # in tree-vertex order
    labels = list(g.vertices)
    labels[0] = _word_label(g.vertices[0], args.out)  # the origin, the only empty word
    rows = list(zip(labels, column[:, 0].tolist(), defect.tolist()))
    return [("dipole", ["vertex", "value", "defect"], rows)], bool(defect.any())


def _cmd_tree_encode(args) -> tuple:
    w = _parse_word(args.word)
    rows = [("nat", tr.encode_nat(w))]
    if w != "":
        rows.append(("int", tr.encode_int(w)))
        rows.append(("int_canonical", _word_label(tr.decode_int(tr.encode_int(w)), args.out)))
    rows.append(("nat_canonical", _word_label(tr.decode_nat(tr.encode_nat(w)), args.out)))
    return [("encodings", ["quantity", "value"], rows)], False


# ---------------------------------------------------------------- spectra

def _parse_words(text: str) -> tuple:
    words = tuple(_parse_word(p) for p in text.split(",") if p != "")
    if not words:
        raise ValueError("no words given")
    return words


def _cmd_spectra_gram(args) -> tuple:
    words = _parse_words(args.words)
    gs = sp.gram_spectrum(words)
    gram_rows = [[w] + row for w, row in zip(words, gs.matrix.tolist())]
    eig_rows = [
        [j, lam, gs.coefficient_sum(j), r] + vec
        for j, ((lam, r), vec) in enumerate(zip(sp.r_function(gs), gs.eigenvectors.T.tolist()))
    ]
    pairs = sp.reciprocity_spectrum(gs, args.depth)
    rec_rows = [[lam, er, cr, abs(er - cr)] for lam, er, cr in pairs]
    tables = [
        ("gram", ["word"] + list(words), gram_rows),
        (
            "eigensystem",
            ["index", "lambda", "coefficient_sum", "r_value"] + [f"xi_{w}" for w in words],
            eig_rows,
        ),
        ("reciprocity", ["lambda", "energy_route", "coefficient_route", "gap"], rec_rows),
    ]
    return tables, max((r[3] for r in rec_rows), default=0.0) > 1e-9


def _cmd_spectra_growth(args) -> tuple:
    if args.max_depth < 1:
        raise ValueError("max depth must be at least 1")
    tr._check_depth(args.max_depth)  # refused before the first, cheap depths run
    rows = []
    worst = 0.0
    for d in range(1, args.max_depth + 1):
        words = tr.words_up_to(d)
        total = sp.spectral_growth(words)
        dev = abs(total - len(words))
        worst = max(worst, dev)
        rows.append([d, len(words), total, dev])
    return [("growth", ["depth", "set_size", "coefficient_sum_squares", "deviation"], rows)], worst > 1e-8


# ---------------------------------------------------------------- walk

def _covariance_table(ens, functions, pairs, lags, exact):
    """The covariance table of E[f1(Z_n) f2(Z_{n+1})] per (f1, f2) pair and lag n, and whether a row failed.

    Rows are pair-major and lag-minor; the estimate and se of each come
    from walks.mean_se and the verdict from CheckRow.passed.

    ens.evaluate(functions[name], step) gives the values of the named
    function at step `step` of every path, for a graph walk and a
    solenoid walk alike.  Each is computed once per lag and dropped after
    the last pair of that lag that reads it, so only one lag's arrays are
    alive at a time.  exact[f1, f2] lists the exact values in lag order;
    with exact None the exact and sigmas cells are None and no row is gated.
    """
    moments = {}
    for n in lags:
        reads = [((f1, n), (f2, n + 1)) for f1, f2 in pairs]
        uses = collections.Counter(key for keys in reads for key in keys)
        alive = {}
        for pair, keys in zip(pairs, reads):
            for key in keys:
                if key not in alive:
                    alive[key] = ens.evaluate(functions[key[0]], key[1])
            moments[pair, n] = wk.mean_se(alive[keys[0]] * alive[keys[1]])
            for key in keys:
                uses[key] -= 1
                if not uses[key]:
                    del alive[key]
    rows = []
    failed = False
    for f1, f2 in pairs:
        for k, n in enumerate(lags):
            est, se = moments[(f1, f2), n]
            if exact is None:
                rows.append([f1, f2, n, est, None, se, None])
                continue
            row = wk.CheckRow(label="", estimate=est, exact=exact[f1, f2][k], se=se)
            failed = failed or not row.passed
            rows.append([f1, f2, n, est, row.exact, se, row.sigmas])
    return ("covariance", ["f1", "f2", "lag", "estimate", "exact", "se", "sigmas"], rows), failed


def _need_steps(steps: int) -> None:
    """Refuse a walk too short for any covariance row before it is simulated: an empty table gates nothing."""
    if steps < 1:
        raise ValueError(f"--steps {steps}: a covariance row needs at least 1 step")


def _cmd_walk_sim(args) -> tuple:
    _need_steps(args.steps)
    g = load_graph(args.graph)
    fm = wk.FiniteMarkov.from_graph(g)
    mu_solve = wk.stationary_measure(fm)
    labels = [_word_label(str(s), args.out) if s == "" else s for s in fm.states]
    rows_st = [list(row) for row in zip(labels, mu_solve.tolist(), fm.mu0.tolist(),
                                        np.abs(mu_solve - fm.mu0).tolist())]
    lags = [n for n in (0, 1, 4) if n + 1 <= args.steps]
    # the table reads steps n and n + 1 of each lag n; a step depends only on the steps before it and
    # its own draws, so stopping after the last step read moves no byte
    ens = wk.simulate(fm, lags[-1] + 1, args.paths, args.seed)
    origin = np.zeros(len(fm))
    origin[g.index[g.origin]] = 1.0
    vecs = {"origin": origin, "distance": g._hops.astype(np.float64)}
    pairs = [("origin", "origin"), ("origin", "distance"), ("distance", "distance")]
    exact = {(f1, f2): [wk.covariance_exact(fm, vecs[f1], vecs[f2], n) for n in lags] for f1, f2 in pairs}
    covariance, failed = _covariance_table(ens, vecs, pairs, lags, exact)
    return [("stationary", ["state", "solve", "conductance", "deviation"], rows_st), covariance], failed


# ---------------------------------------------------------------- wavelet

def _parse_taps(text: str) -> tuple:
    taps = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            tap = Fraction(part) if "/" in part else float(part)
        except ZeroDivisionError:
            raise ValueError(f"filter coefficient {part!r} divides by zero") from None
        if not math.isfinite(tap):
            raise ValueError(f"filter coefficient {part!r} is not finite")
        taps.append(tap)
    if not taps:
        raise ValueError("no filter coefficients given")
    return tuple(taps)


def _cmd_wavelet_qmf(args) -> tuple:
    rep = ci.qmf_check(_parse_taps(args.coeffs))
    rows = [[f"orthogonality_l={l}", res] for l, res in sorted(rep.orthogonality.items())]
    rows.append(["normalization", rep.normalization])
    rows.append(["passed", rep.passed])
    return [("qmf", ["condition", "residual"], rows)], not rep.passed


def _cmd_wavelet_tightness(args) -> tuple:
    if not math.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t!r}")
    defect = ci.tightness_defect(_parse_taps(args.coeffs), args.t, args.K, args.depth)
    return [("tightness", ["t", "K", "depth", "defect"], [[args.t, args.K, args.depth, defect]])], False


def _cantor_identities() -> tuple:
    """The Cantor weight's defining identities, exactly: T_W 1 = 1, W(0) = 2/3, and W is not low-pass."""
    w = ci.cantor_filter()
    one = ci.TrigPoly.constant(1)
    # e_k(0) = 1, so W(0) is the exact sum of the coefficients
    return ci.transfer_apply(w, one, 3) == one, sum(w.coeffs.values()) == Fraction(2, 3), not ci.lowpass_check(w, 3)


def _cmd_wavelet_cantor(args) -> tuple:
    w = ci.cantor_filter()
    rows = [[k, w.coefficient(k)] for k in sorted(w.coeffs)]
    tables = [("cantor_coefficients", ["frequency", "coefficient"], rows)]
    failed = False
    if args.check:
        names = ("transfer_fixes_constants", "w_at_zero_is_two_thirds", "not_lowpass")
        checks = [[name, "pass" if ok else "fail"] for name, ok in zip(names, _cantor_identities())]
        tables.append(("checks", ["check", "status"], checks))
        failed = any(c[1] == "fail" for c in checks)
    return tables, failed


# ---------------------------------------------------------------- solenoid

def _cos_poly(freq: int) -> ci.TrigPoly:
    return ci.TrigPoly({freq: Fraction(1, 2), -freq: Fraction(1, 2)})


def _load_filter(path) -> ci.TrigPoly:
    """W = |m|^2 of a dyadic filter file {"a": [taps], "degree": 2}; bad documents raise ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "a" not in doc:
        raise ValueError("filter file must be a JSON object with an \"a\" array")
    taps = doc["a"]
    if not isinstance(taps, list):
        raise ValueError(f"filter taps \"a\" must be an array, got {type(taps).__name__}")
    if not taps:
        raise ValueError("filter taps \"a\" are empty")
    for i, c in enumerate(taps):
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise ValueError(f"filter tap a[{i}] is not a number: {c!r}")
        try:
            finite = math.isfinite(c)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"filter tap a[{i}] is not finite: {c!r}")
    degree = doc.get("degree", 2)
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise ValueError(f"filter degree must be an integer, got {degree!r}")
    if degree != 2:
        raise ValueError("solenoid walks are dyadic; the filter degree must be 2")
    return ci.w_from_filter(tuple(taps))


def _cmd_solenoid_walk(args) -> tuple:
    _need_steps(args.steps)
    if args.w == "haar":
        w, start = ci.w_from_filter(ci.haar_filter()), ci.DyadicAngle(0, 0)
    elif args.w == "half":
        w, start = ci.TrigPoly.constant(Fraction(1, 2)), 10
    else:
        w, start = _load_filter(args.w), ci.DyadicAngle(0, 0)
    if args.start_level is not None:
        start = args.start_level
    ens = ci.solenoid_walk(w, args.steps, args.paths, args.seed, start=start)
    polys = {"cos1": _cos_poly(1), "cos2": _cos_poly(2)}
    pairs = [("cos1", "cos1"), ("cos1", "cos2"), ("cos2", "cos2")]
    lags = sorted({0, args.steps // 2, args.steps - 1} & set(range(args.steps)))
    exact = None
    # no exact cells for haar from a level or for a filter file yet (README, Known issues)
    if args.w == "half" or (args.w == "haar" and args.start_level is None):
        exact = {(a, b): ci.solenoid_covariance_exact(w, polys[a], polys[b], start, lags) for a, b in pairs}
    # cos1 and cos2 are real with real coefficients, so the imaginary part of
    # their values is exactly +0.0 and the product of the real parts is
    # the real part of the complex product bit for bit
    reals = {name: p.real_part for name, p in polys.items()}
    covariance, failed = _covariance_table(ens, reals, pairs, lags, exact)
    return [covariance], failed


# ---------------------------------------------------------------- verify

def _common_prefix_oracle(words) -> np.ndarray:
    """table[j, k] = length of the common prefix of words[j] and words[k], int64, from binary numerals.

    encode_nat puts character i of a word at bit i, so two words first
    differ at the lowest set bit of the xor of their numerals, capped at
    the shorter length; where the xor is 0 one word is a prefix of the
    other.  The trailing zeros of x are the set bits of (x - 1) & ~x, 64
    for x = 0, so words of up to 64 characters fit.  Nothing here is shared
    with the prefix table that it checks.
    """
    codes = np.array([tr.encode_nat(w) for w in words], dtype=np.uint64)
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    xor = np.bitwise_xor.outer(codes, codes)
    first_difference = np.bitwise_count((xor - 1) & ~xor).astype(np.int64)
    return np.minimum(first_difference, np.minimum.outer(lengths, lengths))


def _verify_checks(quick: bool, seed: int):
    checks = []

    def offset(k):
        # each stochastic check runs on seed + k, wrapped into the seed range so the largest seed runs too
        return (seed + k) & _MASK

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # graph axioms reject bad documents
    try:
        load_graph({"vertices": [0], "edges": [{"u": 0, "v": 0, "c": 1}], "origin": 0})
        add("graph_rejects_self_loop", False, "no error raised")
    except GraphError as exc:
        add("graph_rejects_self_loop", "self-loop" in str(exc), str(exc))
    try:
        load_graph({"vertices": [0, 1, 2], "edges": [{"u": 0, "v": 1, "c": 1}], "origin": 0})
        add("graph_rejects_disconnected", False, "no error raised")
    except GraphError as exc:
        add("graph_rejects_disconnected", "connected" in str(exc), str(exc))

    # Laplacian, transfer, and the two quadratic forms on an exact graph
    from .graphs import (
        _energy_core,
        _laplacian_core,
        laplacian_apply,
        transfer_apply,
        l2_inner,
        energy_inner,
        quadratic_form_l2,
        quadratic_form_energy,
        conductance_mean,
    )

    g = load_graph(
        {
            "vertices": [0, 1, 2, 3],
            "edges": [
                {"u": 0, "v": 1, "c": 2},
                {"u": 1, "v": 2, "c": 3},
                {"u": 2, "v": 3, "c": 1},
                {"u": 3, "v": 0, "c": 5},
            ],
            "origin": 0,
        }
    )
    f = {0: 0, 1: Fraction(1, 3), 2: 2, 3: Fraction(-5, 7)}
    lap = laplacian_apply(g, f)
    tf = transfer_apply(g, f)
    ok = all(lap[x] == g.total[x] * (f[x] - tf[x]) for x in g.vertices)
    add("laplacian_equals_cx_times_one_minus_transfer", ok)
    h = {0: 1, 1: Fraction(-2, 5), 2: 0, 3: 4}
    add("l2_adjointness", l2_inner(g, f, laplacian_apply(g, h)) == l2_inner(g, lap, h))
    add("transfer_preserves_conductance_mean", conductance_mean(g, tf) == conductance_mean(g, f))
    add("l2_form_two_routes", quadratic_form_l2(g, f) == l2_inner(g, f, lap))
    add("energy_form_two_routes", quadratic_form_energy(g, f) == energy_inner(g, f, lap))

    # dipoles: defect vanishes, Gram agrees with path counting, pairing is delta+1
    depth = 4 if quick else 6
    words = tr.words_up_to(depth - 1)
    tg = tr.tree_graph(depth)
    table = tr._prefix_lengths(tg.vertices, words)  # a column per dipole, 14 in the quick pass
    ok = not tr._dipole_defect(tg, words, table).any()
    add("dipole_defect_identically_zero", ok, f"words up to length {depth - 1}")
    dips = table.T  # a row per dipole, as the int64 cores of graphs take functions
    gram = _energy_core(tg, dips, dips)
    add("gram_energy_route_exact", np.array_equal(gram, _common_prefix_oracle(words)))
    # one row suffices for the quick pass; the test suite is exhaustive
    pairing = _energy_core(tg, dips[:1], _laplacian_core(tg, dips))[0].tolist()
    add("dipole_laplacian_pairing", pairing == [2] + [1] * (len(words) - 1))

    # encodings
    ok = all(tr.encode_nat(tr.decode_nat(n)) == n for n in range(1 << 12))
    add("nat_round_trip", ok)
    ok = all(tr.encode_int(tr.decode_int(n)) == n for n in range(-(1 << 11), 1 << 11))
    add("int_round_trip", ok)
    ok = all(
        tr.encode_nat(tr.prepend_digit(w, b)) == tr.sigma_maps(tr.encode_nat(w), b)
        for w in tr.words_up_to(8)
        for b in (0, 1)
    )
    add("sigma_compatibility", ok)

    # matrix eigensystems and reciprocity
    vals, vecs = sp.eigh([[1, 0], [0, 3]])
    add("eigh_diagonal_spectrum", np.allclose(vals, [3.0, 1.0], atol=1e-12))
    ok = True
    for n in (2, 10, 100):
        vals, _ = sp.eigh([[1, 1], [1, n]])
        root = math.sqrt((n + 1) ** 2 - 4 * (n - 1))
        lam_plus = (n + 1 + root) / 2
        lam_minus = (n + 1 - root) / 2
        if abs(vals[0] - lam_plus) > 1e-9 or abs(vals[1] - lam_minus) > 1e-9:
            ok = False
    add("eigh_two_by_two_closed_form", ok)
    gs = sp.gram_spectrum(("0", "111"))
    rf = dict((round(lam, 9), r) for lam, r in sp.r_function(gs))
    add(
        "r_function_diag_1_3",
        abs(rf[1.0] - 2.0) <= 1e-10 and abs(rf[3.0] - 2.0 / 3.0) <= 1e-10,
    )
    pairs = sp.reciprocity_spectrum(("1", "11", "111"))
    add("reciprocity_routes_agree", all(abs(er - cr) <= 1e-9 for _, er, cr in pairs))
    growth = (abs(sp.spectral_growth(wd) - len(wd)) for wd in map(tr.words_up_to, range(1, 5 if quick else 6)))
    add("spectral_growth_parseval", not any(dev > 1e-8 for dev in growth))
    kg = sp.kl_gram_check(gs)
    want = np.diag(1.0 / gs.eigenvalues)
    add("kl_gram_w_vectors", float(np.max(np.abs(kg - want))) <= 1e-8)
    kgu = sp.kl_gram_check(gs, normalized=True)
    add("kl_gram_u_vectors", float(np.max(np.abs(kgu - np.eye(2)))) <= 1e-8)

    # circle calculus
    add("qmf_haar", ci.qmf_check(ci.haar_filter()).passed)
    add("qmf_four_tap", ci.qmf_check(ci.four_tap_filter()).passed)
    for name, ok in zip(("cantor_transfer_fixes_constants", "cantor_w_zero", "cantor_not_lowpass"),
                        _cantor_identities()):
        add(name, ok)
    wh = ci.w_from_filter(ci.haar_filter())
    add("haar_lowpass", ci.lowpass_check(wh, 2))
    t = 0.3
    lhs = ci.cascade_phihat(ci.haar_filter(), t, 21)
    rhs = ci.cascade_phihat(ci.haar_filter(), t / 2.0, 20) * complex(
        ci.modulation(ci.haar_filter())(t / 2.0)
    )
    add("cascade_two_scale_bit_exact", lhs == rhs)
    # finite product has the exact closed form exp(-i pi t (1 - 2^-J)) sin(pi t) / (2^J sin(pi t / 2^J))
    depth_j = 24
    truncated = (
        np.exp(-1j * np.pi * t * (1.0 - 2.0 ** -depth_j))
        * math.sin(math.pi * t)
        / (2.0 ** depth_j * math.sin(math.pi * t / 2.0 ** depth_j))
    )
    add("cascade_haar_truncated_product", abs(ci.cascade_phihat(ci.haar_filter(), t, depth_j) - truncated) <= 1e-12)
    closed = np.exp(-1j * np.pi * t) * np.sinc(t)
    add("cascade_haar_closed_form", abs(ci.cascade_phihat(ci.haar_filter(), t, 28) - closed) <= 1e-8)
    add("tightness_haar", abs(ci.tightness_defect(ci.haar_filter(), 0.3, 512, 20)) <= 1e-3)
    ok = all(
        ci.strong_invariance_check(ci.TrigPoly.basis(k), d) == 0.0
        for k in range(-4, 5)
        for d in (2, 3)
    )
    add("strong_invariance_exact_zero", ok)
    rng = np.random.default_rng(offset(1))

    def rand_poly():
        ks = rng.integers(-8, 9, size=5)
        return ci.TrigPoly({int(k): complex(rng.normal(), rng.normal()) for k in ks})

    residuals = (ci.v_adjoint_check(rand_poly(), rand_poly(), rand_poly()) for _ in range(10))
    add("v_adjoint_residual", not any(r > 1e-12 for r in residuals))

    # markov exact arithmetic
    fm = wk.FiniteMarkov.from_graph(g)
    mu = wk.stationary_measure(fm)
    add("stationary_matches_conductance", float(np.max(np.abs(mu - fm.mu0))) <= 1e-12)
    full = [list(range(4))] * 3
    add("cylinder_total_mass", abs(wk.cylinder_mass(fm, full) - 1.0) <= 1e-12)
    path = load_graph(
        {
            "vertices": [0, 1, 2, 3, 4],
            "edges": [{"u": k, "v": k + 1, "c": 1} for k in range(4)],
            "origin": 0,
        }
    )
    pfm = wk.FiniteMarkov.from_graph(path)
    hs = wk.harmonic_solve(pfm, {0: 0.0, 4: 1.0})
    add("harmonic_solve_linear", all(abs(hs[k] - k / 4) <= 1e-12 for k in range(5)))

    if not quick:
        # reads steps 0 .. 2 (lags 0 and 1)
        ens = wk.simulate(fm, 2, 20000, seed)
        f1, f2 = {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}, {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
        ok = True
        for n in (0, 1):
            est, se = wk.covariance_mc(ens, f1, f2, n)
            ok = ok and wk.CheckRow("", estimate=est, exact=wk.covariance_exact(fm, f1, f2, n), se=se).passed
        add("covariance_mc_vs_exact", ok)
        ruin_kernel = np.zeros((5, 5))
        ruin_kernel[0, 0] = ruin_kernel[4, 4] = 1.0
        for k in (1, 2, 3):
            ruin_kernel[k, k - 1] = ruin_kernel[k, k + 1] = 0.5
        ruin = wk.FiniteMarkov(tuple(range(5)), ruin_kernel, np.full(5, 0.2))
        rens = wk.simulate(ruin, 16, 20000, offset(7))
        rep = wk.martingale_check(rens, {k: k / 4 for k in range(5)})
        add("martingale_harmonic_passes", rep.passed, f"max {rep.max_sigmas:.2f} SE")
        neg = wk.martingale_check(rens, {k: float(k == 2) for k in range(5)})
        add("martingale_negative_control_fails", not neg.passed, f"max {neg.max_sigmas:.2f} SE")
        tree15 = tr.tree_graph(3)
        tfm = wk.FiniteMarkov.from_graph(tree15)
        # reads step 2 -> 3
        tens = wk.simulate(tfm, 3, 20000, offset(11))
        dist = {v: float(len(v)) for v in tree15.vertices}
        mrep = wk.markov_check(tens, tfm, dist, 2)
        add("markov_conditional_means", mrep.passed, f"max {mrep.max_sigmas:.2f} SE")
        whalf = ci.TrigPoly.constant(Fraction(1, 2))
        # reads steps 3 and 4 (lag 3)
        sens = ci.solenoid_walk(whalf, 4, 20000, offset(13), start=10)
        f1 = _cos_poly(1)
        est, se = wk.covariance_mc(sens, f1.real_part, f1.real_part, 3)
        (exact,) = ci.solenoid_covariance_exact(whalf, f1, f1, 10, [3])
        ok = wk.CheckRow("", estimate=est, exact=exact, se=se).passed
        add("solenoid_covariance_half", ok, f"est {est:.5f} exact {exact:.5f}")
        drep = wk.doob_boundary_check(ruin, {k: k / 4 for k in range(5)}, 12, 4000, offset(17))
        add("doob_conservation", drep.passed, f"max {drep.max_sigmas:.2f} SE")

    return checks


def _cmd_verify(args) -> tuple:
    checks = _verify_checks(args.quick, args.seed)
    rows = [[name, "pass" if ok else "fail", detail] for name, ok, detail in checks]
    return [("checks", ["check", "status", "detail"], rows)], not all(ok for _, ok, _ in checks)


# ---------------------------------------------------------------- wiring

def _seed(text: str) -> int:
    """--seed as an int in 0 <= seed < 2^64; argparse names the option when either rule fails."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        return _check_seed(seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument("--output", default=None, help="write to this file instead of stdout")
    p.add_argument("--seed", type=_seed, default=0, help="seed for anything stochastic, 0 <= seed < 2^64")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every run."""
    p = argparse.ArgumentParser(
        prog="spectral-walks",
        description="Energy forms, dipole spectra, path-space walks, and wavelet transfer operators.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    tree = sub.add_parser("tree", help="dipoles and digit encodings on the binary tree")
    tsub = tree.add_subparsers(dest="action", required=True)
    td = tsub.add_parser("dipole", help="tabulate a dipole and its Laplacian defect")
    td.add_argument("--x", required=True, help="word naming the dipole ('-' is the root)")
    td.add_argument("--depth", type=int, default=6)
    _add_common(td)
    td.set_defaults(func=_cmd_tree_dipole)
    te = tsub.add_parser("encode", help="integer encodings of a word")
    te.add_argument("--word", required=True, help="binary word ('-' is the root)")
    _add_common(te)
    te.set_defaults(func=_cmd_tree_encode)

    spec = sub.add_parser("spectra", help="Gram matrices of dipoles and their eigensystems")
    ssub = spec.add_subparsers(dest="action", required=True)
    sg = ssub.add_parser("gram", help="Gram matrix, eigensystem, and reciprocity table")
    sg.add_argument("--words", required=True, help="comma-separated words, e.g. 1,11,111")
    sg.add_argument("--depth", type=int, default=None, help="tree truncation depth for the energy route")
    _add_common(sg)
    sg.set_defaults(func=_cmd_spectra_gram)
    sw = ssub.add_parser("growth", help="sum of squared coefficient sums for nested word sets")
    sw.add_argument("--max-depth", type=int, default=5, dest="max_depth")
    _add_common(sw)
    sw.set_defaults(func=_cmd_spectra_growth)

    walk = sub.add_parser("walk", help="random walks driven by graph conductances")
    wsub = walk.add_subparsers(dest="action", required=True)
    ws = wsub.add_parser("sim", help="simulate and compare against exact kernel arithmetic")
    ws.add_argument("--graph", required=True, help="graph JSON file")
    ws.add_argument("--steps", type=int, default=64, help="only bounds the lags 0, 1 and 4 (a lag n is kept when "
                    "n + 1 <= steps); the walk stops at step lags[-1] + 1")
    ws.add_argument("--paths", type=int, default=100000)
    _add_common(ws)
    ws.set_defaults(func=_cmd_walk_sim)

    wav = sub.add_parser("wavelet", help="filters and transfer operators on the circle")
    vsub = wav.add_subparsers(dest="action", required=True)
    vq = vsub.add_parser("qmf", help="quadrature-mirror residuals of a filter")
    vq.add_argument("--coeffs", required=True, help="comma-separated taps, e.g. 0.5,0.5")
    _add_common(vq)
    vq.set_defaults(func=_cmd_wavelet_qmf)
    vt = vsub.add_parser("tightness", help="lattice mass defect of the cascade limit")
    vt.add_argument("--coeffs", required=True)
    vt.add_argument("--t", type=float, default=0.3)
    vt.add_argument("--K", type=int, default=512)
    vt.add_argument("--depth", type=int, default=20)
    _add_common(vt)
    vt.set_defaults(func=_cmd_wavelet_tightness)
    vc = vsub.add_parser("cantor", help="the degree-3 middle-thirds weight")
    vc.add_argument("--check", action="store_true", help="also run its defining identities")
    _add_common(vc)
    vc.set_defaults(func=_cmd_wavelet_cantor)

    sol = sub.add_parser("solenoid", help="walks on inverse orbits of doubling")
    osub = sol.add_subparsers(dest="action", required=True)
    ow = osub.add_parser("walk", help="simulate and compare covariances where an exact route exists")
    ow.add_argument("--w", required=True, help="haar, half, or a filter JSON file")
    ow.add_argument("--steps", type=int, default=40)
    ow.add_argument("--paths", type=int, default=100000)
    ow.add_argument("--start-level", type=int, default=None, dest="start_level",
                    help="start uniform on this dyadic level instead of the default")
    _add_common(ow)
    ow.set_defaults(func=_cmd_solenoid_walk)

    ver = sub.add_parser("verify", help="run the built-in check suite")
    usub = ver.add_subparsers(dest="action", required=True)
    ua = usub.add_parser("all", help="every check; --quick restricts to the exact ones")
    ua.add_argument("--quick", action="store_true")
    _add_common(ua)
    ua.set_defaults(func=_cmd_verify)

    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        tables, failed = args.func(args)
        _emit(_meta(args), tables, args.out, args.output)
    except (GraphError, OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 1 if failed else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
