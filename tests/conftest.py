"""Shared fixtures: the worked-example sentence pairs and small paraphrase
resource files used across the suite."""

import pytest

from altlex_miner import SentencePair, load_inventory, load_ppdb, load_synonyms, tokenize

WOODCUTS_COMPLEX = (
    "These works he produced and published himself, whilst his much larger "
    "woodcuts were mostly commissioned work."
)
WOODCUTS_SIMPLE = (
    "He created and published his works himself, but his larger works were "
    "mostly commissioned work to be sold."
)
BROADCAST_COMPLEX = "When the show was broadcast, Rupert Boneham won the million dollars."
BROADCAST_SIMPLE = "Rupert Boneham won the million dollars."
LANDMARK_COMPLEX = (
    "It's a very special place because this site, this area, has been tied to "
    "the history and life of African-Americans since about the early 1800s."
)
LANDMARK_SIMPLE = "It has been tied to the history and life of African-Americans since about the early 1800s."
LANDMARK_SIMPLE_SUBSTITUTED = (
    "It has been tied to the history and life of African-Americans because about the early 1800s."
)
COMICS_COMPLEX = (
    "Today, the comic arm of the company flourishes despite no longer having "
    "its own universe of super powered characters."
)
COMICS_SIMPLE = (
    "Today, the company does very well even though they do not have their own "
    "universe of super powered characters."
)
COMICS_COMPLEX_SUBSTITUTED = (
    "Today, the comic arm of the company flourishes though no longer having "
    "its own universe of super powered characters."
)
DRONES_COMPLEX = (
    "Now they have drones in 15 states, including California and Texas. Before "
    "they started the business, the two covered fields on foot or in vehicles."
)
DRONES_SIMPLE = (
    "Now they have drones in 15 states, including California and Texas. Fiene "
    "used to check farm fields on foot or with vehicles."
)

# Characters ``str.splitlines`` breaks a line at that end no line in a file
# read as text: every reader must keep them inside their line.
UNICODE_LINE_BREAKS = ["\u2028", "\u2029", "\x85", "\f", "\v", "\x1c", "\x1d", "\x1e"]


@pytest.fixture(scope="session")
def inventory():
    return load_inventory()


def _pair(complex_raw, simple_raw, source_id):
    return SentencePair(
        complex=tokenize(complex_raw), simple=tokenize(simple_raw), source_id=source_id
    )


@pytest.fixture(scope="session")
def woodcuts_pair():
    return _pair(WOODCUTS_COMPLEX, WOODCUTS_SIMPLE, "woodcuts")


@pytest.fixture(scope="session")
def broadcast_pair():
    return _pair(BROADCAST_COMPLEX, BROADCAST_SIMPLE, "broadcast")


@pytest.fixture(scope="session")
def landmark_pair():
    return _pair(LANDMARK_COMPLEX, LANDMARK_SIMPLE, "landmark")


@pytest.fixture(scope="session")
def comics_pair():
    return _pair(COMICS_COMPLEX, COMICS_SIMPLE, "comics")


@pytest.fixture(scope="session")
def drones_pair():
    return _pair(DRONES_COMPLEX, DRONES_SIMPLE, "drones")


@pytest.fixture(scope="session")
def worked_example_pairs(woodcuts_pair, broadcast_pair, landmark_pair, comics_pair):
    return [woodcuts_pair, broadcast_pair, landmark_pair, comics_pair]


PPDB_FIXTURE_LINES = [
    "[X] ||| despite ||| though ||| PPDB2.0Score=3.5 p(e|f)=0.1 ||| 0-0 ||| Equivalence",
    "[X] ||| before ||| used to ||| PPDB2.0Score=2.1 p(e|f)=0.2 ||| 0-0 ||| Equivalence",
]
SYNONYM_FIXTURE_LINES = ["because\tsince"]


@pytest.fixture(scope="session")
def ppdb_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("resources") / "ppdb_fixture.txt"
    path.write_text("\n".join(PPDB_FIXTURE_LINES) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def synonym_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("resources") / "synonyms.tsv"
    path.write_text("\n".join(SYNONYM_FIXTURE_LINES) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def fixture_stores(ppdb_file, synonym_file):
    return [load_ppdb(ppdb_file), load_synonyms(synonym_file)]
