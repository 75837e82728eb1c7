"""Deterministic generation of plausible entity and person names.

The simulators need human-readable book titles, author names, movie titles
and director names.  Names are assembled from fixed word lists with an
explicit random generator so that a seeded simulation always produces the
same dataset.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NameGenerator"]

_FIRST_NAMES = (
    "James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael", "Linda",
    "David", "Elizabeth", "William", "Barbara", "Richard", "Susan", "Joseph", "Jessica",
    "Thomas", "Sarah", "Charles", "Karen", "Christopher", "Lisa", "Daniel", "Nancy",
    "Matthew", "Betty", "Anthony", "Margaret", "Mark", "Sandra", "Donald", "Ashley",
    "Steven", "Kimberly", "Paul", "Emily", "Andrew", "Donna", "Joshua", "Michelle",
    "Kenneth", "Carol", "Kevin", "Amanda", "Brian", "Dorothy", "George", "Melissa",
    "Timothy", "Deborah", "Ronald", "Stephanie", "Edward", "Rebecca", "Jason", "Sharon",
    "Jeffrey", "Laura", "Ryan", "Cynthia", "Jacob", "Kathleen", "Gary", "Amy",
)

_LAST_NAMES = (
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller", "Davis",
    "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez", "Wilson", "Anderson",
    "Thomas", "Taylor", "Moore", "Jackson", "Martin", "Lee", "Perez", "Thompson",
    "White", "Harris", "Sanchez", "Clark", "Ramirez", "Lewis", "Robinson", "Walker",
    "Young", "Allen", "King", "Wright", "Scott", "Torres", "Nguyen", "Hill", "Flores",
    "Green", "Adams", "Nelson", "Baker", "Hall", "Rivera", "Campbell", "Mitchell",
    "Carter", "Roberts", "Gomez", "Phillips", "Evans", "Turner", "Diaz", "Parker",
    "Cruz", "Edwards", "Collins", "Reyes", "Stewart", "Morris", "Morales", "Murphy",
)

_TITLE_ADJECTIVES = (
    "Silent", "Hidden", "Lost", "Broken", "Golden", "Crimson", "Distant", "Eternal",
    "Forgotten", "Burning", "Frozen", "Sacred", "Savage", "Shattered", "Twilight",
    "Midnight", "Scarlet", "Hollow", "Ancient", "Winter", "Summer", "Electric",
    "Quiet", "Restless", "Wandering", "Fallen", "Rising", "Final", "First", "Last",
)

_TITLE_NOUNS = (
    "Garden", "River", "Empire", "Shadow", "Harbor", "Mountain", "Letter", "Promise",
    "Kingdom", "Journey", "Secret", "Voyage", "Horizon", "Symphony", "Island",
    "Lantern", "Mirror", "Orchard", "Castle", "Crossing", "Station", "Archive",
    "Compass", "Harvest", "Labyrinth", "Meridian", "Covenant", "Paradox", "Cipher",
    "Chronicle",
)

_ALPHABET = tuple("abcdefghijklmnopqrstuvwxyz")


class NameGenerator:
    """Seeded generator of unique person names and work titles.

    Parameters
    ----------
    rng:
        A :class:`numpy.random.Generator`; pass the simulation's generator so
        that names are part of the reproducible stream.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._used_people: set[str] = set()
        self._used_titles: set[str] = set()

    def _pick(self, words: tuple[str, ...]) -> str:
        """One uniform draw from ``words``.

        Consumes the generator exactly like ``rng.choice(words)`` (one
        bounded integer draw), without converting ``words`` to an array on
        every call — the retry loops below make up to 100 draws per name.
        """
        return words[self._rng.integers(0, len(words))]

    def person_name(self) -> str:
        """A unique "First Last" (suffixed with a number once combinations run out)."""
        pick = self._pick
        for _ in range(50):
            name = f"{pick(_FIRST_NAMES)} {pick(_LAST_NAMES)}"
            if name not in self._used_people:
                self._used_people.add(name)
                return name
        serial = len(self._used_people) + 1
        name = f"{pick(_FIRST_NAMES)} {pick(_LAST_NAMES)} {serial}"
        self._used_people.add(name)
        return name

    def person_names(self, count: int) -> list[str]:
        """A list of ``count`` unique person names."""
        return [self.person_name() for _ in range(count)]

    def work_title(self, prefix: str = "The") -> str:
        """A unique work title like "The Silent Harbor"."""
        pick = self._pick
        for _ in range(50):
            title = f"{prefix} {pick(_TITLE_ADJECTIVES)} {pick(_TITLE_NOUNS)}"
            if title not in self._used_titles:
                self._used_titles.add(title)
                return title
        serial = len(self._used_titles) + 1
        title = f"{prefix} {pick(_TITLE_ADJECTIVES)} {pick(_TITLE_NOUNS)} {serial}"
        self._used_titles.add(title)
        return title

    def work_titles(self, count: int, prefix: str = "The") -> list[str]:
        """A list of ``count`` unique work titles."""
        return [self.work_title(prefix=prefix) for _ in range(count)]

    def misspell(self, name: str) -> str:
        """A corrupted variant of ``name`` (simulates a typo'd or wrong value)."""
        if not name:
            return "Unknown"
        characters = list(name)
        position = int(self._rng.integers(0, len(characters)))
        characters[position] = self._pick(_ALPHABET)
        return "".join(characters)
