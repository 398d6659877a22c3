"""The key guard against the predicate it replaced.

``check_key`` stands between a key and a filesystem path
(``<root>/<key[:2]>/<key>.json``).  It used to walk the key character by
character; it is now one compiled pattern, ``fullmatch``ed.  The old
predicate lives on here as the reference, and every string must get the
same verdict from both — in particular the ones a regular expression is
known to get wrong when it is anchored with ``$`` or matched with
``re.UNICODE`` digit classes.

Where the guard runs is pinned here too: every public method of the
result and claim stores that takes a key builds a path from it, and
rejects a malformed one before it touches the filesystem.
"""

import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.results import ClaimStore, ResultStore
from repro.results.keys import check_key, is_cell_key

HEX = "0123456789abcdef"
KEY = "0123456789abcdef" * 4


def reference_is_key(key):
    """The predicate ``check_key`` enforced before it was a pattern."""
    return len(key) >= 8 and all(c in HEX for c in key)


def accepts(key):
    try:
        check_key(key)
    except ValueError as error:
        assert "malformed result-store key" in str(error)
        return False
    return True


HAND_PICKED = [
    KEY,
    KEY + "\n",
    "\n" + KEY,
    KEY.upper(),
    KEY[:-1] + "A",
    "../" + KEY,
    KEY[:30] + "/../" + KEY[:30],
    KEY[:7],
    KEY[:8],
    "",
    "٣" * 8,  # ARABIC-INDIC DIGIT THREE: a digit, not a hex digit
    KEY[:-1] + "٣",
    "１２３４５６７８",  # full-width digits
    KEY[:-1] + "g",
    KEY + " ",
    KEY + "\x00",
    "deadbeef.json",
]


@pytest.mark.parametrize("key", HAND_PICKED)
def test_hand_picked_strings_get_the_old_verdict(key):
    assert accepts(key) == reference_is_key(key)
    assert is_cell_key(key) == (len(key) == 64 and reference_is_key(key))


@given(st.text(max_size=80))
def test_any_text_gets_the_old_verdict(key):
    assert accepts(key) == reference_is_key(key)
    assert is_cell_key(key) == (len(key) == 64 and reference_is_key(key))


@given(
    st.text(alphabet=HEX, min_size=0, max_size=70),
    st.sampled_from(["", "\n", "A", "g", "/", "٣", ".", "\\"]),
    st.integers(min_value=0, max_value=70),
)
def test_near_keys_get_the_old_verdict(body, intruder, position):
    key = body[:position] + intruder + body[position:]
    assert accepts(key) == reference_is_key(key)
    assert is_cell_key(key) == (len(key) == 64 and reference_is_key(key))


def test_a_cell_key_is_the_64_character_case():
    assert is_cell_key(KEY)
    assert not is_cell_key(KEY[:-1])
    assert not is_cell_key(KEY + "0")
    assert accepts(KEY[:-1]) and accepts(KEY + "0")


def key_taking_methods(cls):
    """``(name, other argument names)`` of the public methods taking a ``key``."""
    for name, method in inspect.getmembers(cls, inspect.isfunction):
        parameters = list(inspect.signature(method).parameters)[1:]
        if not name.startswith("_") and "key" in parameters:
            yield name, [p for p in parameters if p != "key"]


#: Something harmless for every other argument a key-taking method has.
FILLER = {"document": {}}

ESCAPES = [
    "../x", "../../" + KEY, KEY[:2] + "/../../" + KEY, "/" + KEY, KEY + "/..", "",
    KEY.upper(), KEY + "\n",
]


def tree(root):
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


#: Every public key-taking method, by name: a new one must be added here,
#: and so be covered by the escape test below.
KEY_TAKING = {
    ResultStore: [
        "delete", "get", "get_raw", "get_sidecar", "has", "path_for", "put",
        "put_sidecar", "quarantine", "sidecar_path_for",
    ],
    ClaimStore: ["get", "heartbeat", "path_for", "release", "try_claim"],
}


@pytest.mark.parametrize("facade", [ResultStore, ClaimStore])
def test_the_key_taking_methods_are_the_ones_named(facade):
    assert [name for name, _ in key_taking_methods(facade)] == KEY_TAKING[facade]


@pytest.mark.parametrize("bad", ESCAPES)
@pytest.mark.parametrize("facade", [ResultStore, ClaimStore])
def test_every_store_method_checks_the_key_it_builds_a_path_from(
    tmp_path, facade, bad
):
    (tmp_path / "x").write_text("outside the store")
    store = ResultStore(tmp_path / "store")
    claims = ClaimStore(store.root, "r")
    store.put(KEY, {})
    store.put_sidecar(KEY, {})
    claims.try_claim(KEY)
    subject = store if facade is ResultStore else claims
    before = tree(tmp_path)
    methods = list(key_taking_methods(facade))
    assert [name for name, _ in methods] == KEY_TAKING[facade]
    for name, others in methods:
        with pytest.raises(ValueError, match="malformed result-store key"):
            getattr(subject, name)(bad, *(FILLER[other] for other in others))
    assert tree(tmp_path) == before
    assert (tmp_path / "x").read_text() == "outside the store"
