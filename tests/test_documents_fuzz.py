"""Property tests for the code-document boundary.

Small valid documents are mangled (wrong types, huge or negative field
parameters, out-of-range or repeated logs, dropped keys, extra entries) and
handed to ``qgrs verify``, as are raw byte strings (bad UTF-8, cut or stray
brackets): whatever the input, it must answer with an exit code in
{0, 1, 2} and never with a traceback.  A second property
checks that encoding then decoding a code is the identity.
"""
from __future__ import annotations

import copy
import json

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrs.cli import decode_document, encode_document, main
from qgrs.constructions import construct
from qgrs.field import make_field
from qgrs.grs import GrsSpec

# zero locator over GF(16); GF(9); GF(16); GF(25)
_BASES = [json.loads(json.dumps(encode_document(construct(*args))))
          for args in ((1, 4, 5, 2, 2), (2, 3, 4, 3, 2), (5, 4, 3, 2, 2), (3, 5, 4, 1, 2))]

# small ints may name a real (small) field, order or log; the large ones
# are the hostile field parameters and logs
_INTS = st.integers(-3, 5) | st.sampled_from([8, 15, 24, 2 ** 61 - 1, 10 ** 6, 10 ** 30])
_SCALARS = st.none() | st.booleans() | _INTS | st.floats(allow_nan=False) | st.text(max_size=4)
_JUNK = _SCALARS | st.lists(_SCALARS, max_size=3) | st.dictionaries(st.text(max_size=3), _SCALARS,
                                                                      max_size=2)


def _paths(node, prefix=()):
    """Every (container, key) pair reachable in a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mangled_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        # half the mutations hit the header, k or a log
        hot = [q for q in paths if q[:1] in (("field",), ("k",), ("locators",), ("multipliers",))
               and q[:2] != ("field", "modulus")]
        path = draw(st.sampled_from(hot if hot and draw(st.booleans()) else paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "drop", "append"]))
        if action == "drop":
            del parent[path[-1]]
        elif action == "append" and isinstance(parent[path[-1]], list):
            parent[path[-1]].append(draw(_JUNK))
        else:
            parent[path[-1]] = draw(_JUNK)
    wrap = draw(st.integers(0, 9))
    return doc if wrap < 8 else [doc] if wrap == 8 else draw(_SCALARS)


@st.composite
def raw_documents(draw):
    """Any byte string, or an encoded document with a slice of it replaced
    by arbitrary bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    raw = json.dumps(draw(st.sampled_from(_BASES))).encode()
    i = draw(st.integers(0, len(raw)))
    j = draw(st.integers(i, min(len(raw), i + 8)))
    return raw[:i] + draw(st.binary(max_size=8)) + raw[j:]


@settings(max_examples=200, deadline=None)
@given(mangled_documents().map(lambda doc: json.dumps(doc).encode()) | raw_documents())
def test_verify_survives_mangled_documents(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_bytes(raw)
    res = CliRunner().invoke(main, ["verify", str(path), "--minor-budget", "1000",
                                    "--word-budget", "1000"])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.output
    assert res.exit_code in (0, 1, 2), res.output
    assert "Traceback" not in res.output


_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]


@st.composite
def codes(draw):
    F = make_field(*draw(st.sampled_from(_FIELDS)))
    locs = draw(st.lists(st.integers(0, F.order - 1), min_size=1,
                         max_size=min(F.order, 12), unique=True))
    mults = draw(st.lists(st.integers(1, F.order - 1), min_size=len(locs),
                          max_size=len(locs)))
    provenance = draw(st.none() | st.dictionaries(
        st.text(max_size=4), st.none() | st.booleans() | st.integers() | st.text(max_size=4),
        max_size=3))
    return GrsSpec(F, tuple(locs), tuple(mults),
                   draw(st.integers(1, len(locs))), provenance=provenance)


@settings(max_examples=200, deadline=None)
@given(codes())
def test_encode_decode_round_trip(spec):
    doc = json.loads(json.dumps(encode_document(spec)))
    back = decode_document(doc)
    assert back.field is spec.field
    assert back.locators == spec.locators
    assert back.multipliers == spec.multipliers
    assert back.k == spec.k
    assert back.provenance == spec.provenance
    assert encode_document(back) == doc
