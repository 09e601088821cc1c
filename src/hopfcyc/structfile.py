"""Structure-constant JSON files: canonical serialization, content hashes,
and validated parsing.

Every file carries a schema tag, the field, basis labels, and sparse tensors
as ``[row, col, "p/q"]`` triples (vectors as ``[i, "p/q"]`` pairs).  Carrier
and coefficient files reference their Hopf algebra file by content hash, so
multi-file scenarios are auditable.  Serialization is canonical: identical
objects produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json

from .fields import FieldError, field_from_name
from .linalg import LinMap, Space, Vector, tensor_space, unit_space
from .hopf import HopfAlgebra
from .symmetries import (
    ComoduleAlgebra,
    ComoduleCoalgebra,
    ModuleAlgebra,
    ModuleComodule,
)

SCHEMA = "hopfcyc/1"


class ParseError(ValueError):
    pass


def canonical_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=1, ensure_ascii=False) + "\n").encode("utf-8")


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def _map_entries(m, field):
    return [[r, c, field.format(v)] for (r, c), v in sorted(m.entries.items())]


def _vec_entries(v, field):
    return [[i, field.format(x)] for i, x in sorted(v.entries.items())]


def _entry_lists(entries, n, what):
    """``entries``, which must be a list of ``n``-item lists."""
    if not isinstance(entries, list):
        raise ParseError("%s: entries must be a list, found %s" % (
            what, json.dumps(entries, ensure_ascii=False)))
    for item in entries:
        if not isinstance(item, list) or len(item) != n:
            raise ParseError("%s: malformed entry %r" % (what, item))
    return entries


def _scalar(lit, field, what, item):
    """The exact scalar that ``lit`` writes: a string or an integer.  A JSON
    number with a fraction or an exponent was read as a float, which need not
    equal what the file wrote, and a boolean is no scalar; both are refused."""
    if not isinstance(lit, str) and type(lit) is not int:
        raise ParseError("%s: scalar must be a string or an integer, found %s in %r" % (
            what, json.dumps(lit), item))
    try:
        return field.parse(lit)
    except FieldError as err:
        raise ParseError("%s: %s" % (what, err))


def _indices(item, dims, what):
    """The leading entries of ``item``, one index below each of ``dims``:
    integers (a boolean is no index), then in range."""
    index = tuple(item[:len(dims)])
    if not all(type(i) is int for i in index):
        raise ParseError("%s: non-integer index in %r" % (what, item))
    if not all(0 <= i < d for i, d in zip(index, dims)):
        raise ParseError("%s: index out of range in %r" % (what, item))
    return index


def _map_from_entries(entries, domain, codomain, field, what):
    out = {}
    for item in _entry_lists(entries, 3, what):
        r, c = _indices(item, (codomain.dim, domain.dim), what)
        out[(r, c)] = _scalar(item[2], field, what, item)
    return LinMap(domain, codomain, out)


def _vec_from_entries(entries, space, field, what):
    out = {}
    for item in _entry_lists(entries, 2, what):
        (i,) = _indices(item, (space.dim,), what)
        out[i] = _scalar(item[1], field, what, item)
    return Vector(space, out)


def hopf_to_dict(H: HopfAlgebra, name):
    f = H.field
    return {
        "schema": SCHEMA,
        "kind": "hopf",
        "name": name,
        "field": f.name,
        "dim": H.dim,
        "basis": list(H.space.labels),
        "tensors": {
            "mult": _map_entries(H.mult, f),
            "unit": _vec_entries(H.unit, f),
            "comult": _map_entries(H.comult, f),
            "counit": _map_entries(H.counit, f),
            "antipode": _map_entries(H.antipode, f),
        },
    }


def _basis_space(d, field):
    """The space that file ``d`` labels; ``_check_header`` has checked that
    its ``dim`` is an integer and its ``basis`` a list of strings."""
    labels = tuple(d["basis"])
    if len(labels) != d["dim"]:
        raise ParseError("dim %d does not match %d basis labels" % (d["dim"], len(labels)))
    return Space(labels, field)


def hopf_from_dict(d, validate=True) -> HopfAlgebra:
    _check_header(d, "hopf")
    field = field_from_name(d["field"])
    H = _basis_space(d, field)
    HH = tensor_space(H, H)
    k = unit_space(field)
    t = d["tensors"]
    return HopfAlgebra(
        H,
        _map_from_entries(t["mult"], HH, H, field, "mult"),
        _vec_from_entries(t["unit"], H, field, "unit"),
        _map_from_entries(t["comult"], H, HH, field, "comult"),
        _map_from_entries(t["counit"], H, k, field, "counit"),
        _map_from_entries(t["antipode"], H, H, field, "antipode"),
        name=d.get("name", "H"),
        validate=validate,
    )


_HOPF_TENSORS = ("mult", "unit", "comult", "counit", "antipode")


def _required_keys(kind):
    """The keys a file of ``kind`` must hold besides its schema and kind; a
    tensor is named ``tensors.<name>``.  An unknown kind requires none."""
    if kind == "cochain":
        return ("field", "degree", "coordinates")
    if kind == "hopf":
        tensors = _HOPF_TENSORS
    elif kind in _KINDS:
        tensors = [t for t, _, _ in _KINDS[kind][2]]
    else:
        return ()
    return ("field", "dim", "basis", "tensors") + tuple("tensors." + t for t in tensors)


# the required keys whose values must have one type: the test and its name
_KEY_TYPES = {
    "field": (lambda v: isinstance(v, str), "a string"),
    "dim": (lambda v: type(v) is int, "an integer"),
    "degree": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "basis": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
              "a list of strings"),
}


def _check_header(d, kind=None, what=None):
    """The schema, the kind if one is expected, and every key the file's kind
    requires, with the type of its field, dim, basis or degree, so a file that lacks
    one or gives it another type is refused by name, not by a KeyError or a
    TypeError; ``what`` names the file in that message."""
    if d.get("schema") != SCHEMA:
        raise ParseError("unsupported schema %r (expected %r)" % (d.get("schema"), SCHEMA))
    if kind is not None and d.get("kind") != kind:
        raise ParseError("expected kind %r, found %r" % (kind, d.get("kind")))
    what = what or "%s file" % d.get("kind")
    for key in _required_keys(d.get("kind")):
        top, _, tensor = key.partition(".")
        holder = d.get(top) if tensor else d
        if not isinstance(holder, dict) or (tensor or top) not in holder:
            raise ParseError("%s: missing key %r" % (what, key))
        test, want = _KEY_TYPES.get(key, (None, None))
        if test is not None and not test(d[key]):
            raise ParseError("%s: %r must be %s, found %s" % (
                what, key, want, json.dumps(d[key], ensure_ascii=False)))


def _hopf_ref(hopf_dict):
    return {"name": hopf_dict.get("name", "H"), "sha256": content_hash(hopf_dict)}


# each carrier and coefficient kind: its class, its default name, and the
# tensors it writes and parses, in order, with domain and codomain as legs of
# its space X and of the Hopf algebra's space H ("" is the ground field; a
# vector has no domain).  A comodule algebra also records its side; one that
# is not left reverses its coaction's codomain legs.
_KINDS = {
    "comodule-algebra": (ComoduleAlgebra, "A", (
        ("mult", "XX", "X"), ("unit", None, "X"), ("coaction", "X", "HX"))),
    "comodule-coalgebra": (ComoduleCoalgebra, "C", (
        ("comult", "X", "XX"), ("counit", "X", ""), ("coaction", "X", "XH"))),
    "module-algebra": (ModuleAlgebra, "A", (
        ("mult", "XX", "X"), ("unit", None, "X"), ("action", "HX", "X"))),
    "module-comodule": (ModuleComodule, "M", (("action", "XH", "X"), ("coaction", "X", "HX"))),
}


def structure_to_dict(kind, X, name, hopf_dict):
    """A carrier or coefficient file; comodule algebras also record their side."""
    f = X.space.field
    out = {
        "schema": SCHEMA,
        "kind": kind,
        "name": name,
        "field": f.name,
        "dim": X.dim,
        "basis": list(X.space.labels),
        "hopf": _hopf_ref(hopf_dict),
        "tensors": {t: (_map_entries if dom is not None else _vec_entries)(getattr(X, t), f)
                    for t, dom, _ in _KINDS[kind][2]},
    }
    if kind == "comodule-algebra":
        out["side"] = X.side
    return out


def cochain_to_dict(vec, name, degree, complex_kind, basis_labels, refs):
    field = vec.space.field
    return {
        "schema": SCHEMA,
        "kind": "cochain",
        "name": name,
        "field": field.name,
        "complex": complex_kind,
        "degree": degree,
        "basis": list(basis_labels),
        "refs": refs,
        "coordinates": _vec_entries(vec, field),
    }


def _verify_hopf_ref(d, hopf_dict, what):
    ref = d.get("hopf", {})
    want = ref.get("sha256")
    have = content_hash(hopf_dict)
    if want != have:
        raise ParseError(
            "%s: hopf content hash mismatch (file says %s…, supplied %s…)"
            % (what, str(want)[:12], have[:12]))


def field_of(d, hopf):
    """The field that file ``d`` names (its keys checked by ``_check_header``),
    which must be its Hopf algebra's."""
    field = field_from_name(d["field"])
    if field.name != hopf.field.name:
        raise ParseError("field %s does not match the Hopf file's %s"
                         % (field.name, hopf.field.name))
    return field


def object_from_dict(d, hopf_dict=None, hopf=None, validate=True):
    """Parse any structure file.  Carrier/coefficient kinds need the Hopf
    file's dict (for the hash check) and the parsed HopfAlgebra."""
    _check_header(d)
    kind = d.get("kind")
    if kind == "hopf":
        return hopf_from_dict(d, validate=validate)
    if hopf_dict is None or hopf is None:
        raise ParseError("%s file needs its Hopf algebra file" % kind)
    _verify_hopf_ref(d, hopf_dict, kind)
    if kind not in _KINDS:
        raise ParseError("unknown kind %r" % kind)
    field = field_of(d, hopf)
    X = _basis_space(d, field)
    t = d["tensors"]
    cls, default_name, tensors = _KINDS[kind]
    extra = {"side": d.get("side", "left")} if kind == "comodule-algebra" else {}

    def space(legs):
        if extra.get("side", "left") != "left" and legs == "HX":
            legs = "XH"
        spaces = [X if leg == "X" else hopf.space for leg in legs]
        return tensor_space(*spaces) if spaces else unit_space(field)

    parsed = [_vec_from_entries(t[name], space(cod), field, name) if dom is None
              else _map_from_entries(t[name], space(dom), space(cod), field, name)
              for name, dom, cod in tensors]
    return cls(hopf, X, *parsed, name=d.get("name", default_name), validate=validate, **extra)


def load_file(path, kind=None):
    """The parsed dict of a structure file whose schema, kind (if ``kind`` is
    given) and required keys have been checked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as err:
        raise ParseError("cannot read %s: %s" % (path, err))
    except json.JSONDecodeError as err:
        raise ParseError("%s is not valid JSON: %s" % (path, err))
    if not isinstance(d, dict):
        raise ParseError("%s: top level must be an object" % path)
    _check_header(d, kind, path)
    return d


def write_file(path, d):
    data = canonical_bytes(d)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


# ---------------------------------------------------------------------------
# emittable example registry
# ---------------------------------------------------------------------------


def example_names():
    from . import corpus

    names = []
    for h in corpus.hopf_names():
        names.append(h)
    for h in ["trivial", "kZ2", "kZ3", "kS3", "sweedler-h4"]:
        names.append("%s.regular-comodule-algebra" % h)
        names.append("%s.adjoint-comodule-coalgebra" % h)
    names += [
        "trivial.coeff-eps-unit",
        "sweedler-h4.coeff-eps-unit",
        "sweedler-h4.coeff-eps-g",
        "sweedler-h4.coeff-sgn-unit",
        "kZ2.coeff-eps-unit",
        "kZ2.translation-module-algebra",
        "bicrossed-s3-f3.function-comodule-algebra",
        "bicrossed-s3-f2.function-comodule-algebra",
        "bicrossed-s3-f3.group-comodule-coalgebra",
        "bicrossed-s3-f2.group-comodule-coalgebra",
    ]
    return names


def build_example(name):
    """Return (dict, [extra (filename, dict) dependencies]) for a name."""
    from . import corpus
    from .hopf import counit_character, unit_group_like, GroupLike
    from .symmetries import (
        adjoint_comodule_coalgebra,
        bicrossed_function_comodule_algebra,
        bicrossed_group_comodule_coalgebra,
        regular_comodule_algebra,
        scalar_coefficients,
        translation_module_algebra,
    )
    from .groups import cyclic_group

    if name in corpus.hopf_names():
        return hopf_to_dict(corpus.get_hopf(name), name), []
    if "." not in name:
        raise KeyError("unknown example %r" % name)
    hname, _, rest = name.partition(".")
    H = corpus.get_hopf(hname)
    hd = hopf_to_dict(H, hname)
    deps = [("%s.json" % hname, hd)]
    if rest == "regular-comodule-algebra":
        return structure_to_dict("comodule-algebra", regular_comodule_algebra(H), name, hd), deps
    if rest == "adjoint-comodule-coalgebra":
        return structure_to_dict("comodule-coalgebra", adjoint_comodule_coalgebra(H), name, hd), deps
    if rest == "coeff-eps-unit":
        M = scalar_coefficients(H, counit_character(H), unit_group_like(H))
        return structure_to_dict("module-comodule", M, name, hd), deps
    if rest == "coeff-eps-g" and hname == "sweedler-h4":
        g = GroupLike(H, H.space.basis_vector(1), name="g")
        M = scalar_coefficients(H, counit_character(H), g)
        return structure_to_dict("module-comodule", M, name, hd), deps
    if rest == "coeff-sgn-unit" and hname == "sweedler-h4":
        sgn = corpus.sweedler_sign_character(H)
        M = scalar_coefficients(H, sgn, unit_group_like(H))
        return structure_to_dict("module-comodule", M, name, hd), deps
    if rest == "translation-module-algebra" and hname == "kZ2":
        _, A = translation_module_algebra(cyclic_group(2))
        return structure_to_dict("module-algebra", A, name, hd), deps
    if rest == "function-comodule-algebra" and hname in corpus.bicrossed_names():
        A = bicrossed_function_comodule_algebra(corpus.get_bicrossed(hname))
        return structure_to_dict("comodule-algebra", A, name, hd), deps
    if rest == "group-comodule-coalgebra" and hname in corpus.bicrossed_names():
        C = bicrossed_group_comodule_coalgebra(corpus.get_bicrossed(hname))
        return structure_to_dict("comodule-coalgebra", C, name, hd), deps
    raise KeyError("unknown example %r" % name)
