"""Stylistic screen-name generation.

Screen names are a real detection signal: mass-created fakes carry
machine-minted handles (random consonant runs, long digit tails,
promo keywords), while humans pick name-like handles with at most a
birth-year or a couple of digits.  The rule sets of the era looked at
exactly this, and the feature catalogue exposes it
(``name_digit_fraction``, ``name_length``).

A handle is drawn as a few small codes into the vocabularies below
(:func:`human_handles`, :func:`bot_handles`), columns of a whole batch
of followers at once, and rendered to text only when an account is
read (:func:`render_handle`), so a regenerated follower always gets the
same handle.  The combined space is large (tens of millions of human
handles), making collisions across a simulation rare; accounts are
keyed by id, so nothing requires a handle to be unique.
"""

from __future__ import annotations

import string

from .draws import mix64

_FIRST_NAMES = (
    "maria", "anna", "luca", "marco", "paolo", "giulia", "sara", "elena",
    "john", "mike", "emma", "lucy", "david", "laura", "carla", "diego",
    "jose", "ana", "pierre", "claire", "hans", "ingrid", "ali", "yuki",
    "chen", "nina", "ivan", "olga", "tom", "kate",
)

_LAST_NAMES = (
    "rossi", "russo", "ferrari", "bianchi", "romano", "ricci", "marino",
    "greco", "smith", "jones", "brown", "taylor", "garcia", "lopez",
    "martin", "bernard", "dubois", "muller", "schmidt", "tanaka", "kim",
    "wang", "novak", "silva", "santos", "costa", "petrov", "larsen",
    "nielsen", "kowalski",
)

_PROMO_WORDS = (
    "deals", "followers", "cash", "promo", "winbig", "gratis", "offers",
    "social", "likes", "viral", "boost",
)

_SEPARATORS = ("", "_", ".")


#: Characters of a random alphanumeric handle.
_ALPHANUMERIC = string.ascii_lowercase + string.digits
_TITLED_FIRST = tuple(name.title() for name in _FIRST_NAMES)
_TITLED_LAST = tuple(name.title() for name in _LAST_NAMES)

#: Resolution of the rolls a handle keeps as integer codes.
_ROLLS = 1 << 20
_NO_SUFFIX = int(0.35 * _ROLLS)
_YEAR_SUFFIX = int(0.70 * _ROLLS)
_PROMO = int(0.4 * _ROLLS)
_FARM = int(0.7 * _ROLLS)

#: Handle styles (the ``handle_style`` column).
HUMAN, BOT = 0, 1
#: ``name_kind`` codes: no display name, or a human one; a larger code
#: ``k`` names the account after the first ``k`` characters of its handle.
NAME_EMPTY, NAME_DISPLAY = 0, 1

def human_handles(draws) -> dict:
    """Handle columns a person would pick: name-like, few or no digits.

    Five draws a row: first name, last name, separator, the suffix roll
    (kept as an integer code) and the suffix digits' bits; the suffix
    is 35% none, 35% a birth year 70-99 and 30% a number 1-999 (see
    :func:`render_handle`).
    """
    return {"handle_style": HUMAN,
            "handle_a": draws.choice(len(_FIRST_NAMES)),
            "handle_b": draws.choice(len(_LAST_NAMES)),
            "handle_c": draws.choice(len(_SEPARATORS)),
            "handle_d": draws.choice(_ROLLS),
            "handle_bits": draws.bits()}


def bot_handles(draws) -> dict:
    """Handle columns of a machine-minted account.

    Five draws a row: the promo word, the name, the style roll, the
    length roll (both kept as integer codes) and the characters' bits.
    The style is 40% promo word plus a 4-7 digit tail, 30% name
    fragment plus 5-8 digits and 30% a random alphanumeric run of 8-14
    (see :func:`render_handle`).
    """
    return {"handle_style": BOT,
            "handle_a": draws.choice(len(_PROMO_WORDS)),
            "handle_b": draws.choice(len(_FIRST_NAMES)),
            "handle_c": draws.choice(_ROLLS),
            "handle_d": draws.choice(_ROLLS),
            "handle_bits": draws.bits()}


def display_names(draws) -> dict:
    """Display-name columns ("Maria Ricci"): two draws a row."""
    return {"name_kind": NAME_DISPLAY,
            "name_first": draws.choice(len(_FIRST_NAMES)),
            "name_last": draws.choice(len(_LAST_NAMES))}


def render_handle(style: int, a: int, b: int, c: int, d: int,
                  bits: int) -> str:
    """The handle a row of handle codes stands for (at most 15 characters)."""
    if style == HUMAN:
        if d < _NO_SUFFIX:
            suffix = ""
        elif d < _YEAR_SUFFIX:
            suffix = str(70 + bits % 30)        # a birth year
        else:
            suffix = str(1 + bits % 999)
        return f"{_FIRST_NAMES[a]}{_SEPARATORS[c]}{_LAST_NAMES[b]}{suffix}"[:15]
    if c < _PROMO:
        length = 4 + d * 4 // _ROLLS
        return f"{_PROMO_WORDS[a]}{bits % 10 ** length:0{length}d}"[:15]
    if c < _FARM:
        length = 5 + d * 4 // _ROLLS
        return f"{_FIRST_NAMES[b][:4]}{bits % 10 ** length:0{length}d}"[:15]
    characters, value = [], bits
    for index in range(8 + d * 7 // _ROLLS):
        if index == 12:          # 36 ** 12 < 2 ** 64 <= 36 ** 13
            value = mix64(bits)
        value, digit = divmod(value, len(_ALPHANUMERIC))
        characters.append(_ALPHANUMERIC[digit])
    return "".join(characters)[:15]


def render_name(kind: int, first: int, last: int, handle: str) -> str:
    """The display name a ``name_kind`` code stands for."""
    if kind == NAME_EMPTY:
        return ""
    if kind == NAME_DISPLAY:
        return f"{_TITLED_FIRST[first]} {_TITLED_LAST[last]}"
    return handle[:kind]


def digit_fraction(screen_name: str) -> float:
    """Fraction of a handle's characters that are digits."""
    if not screen_name:
        return 0.0
    return sum(1 for c in screen_name if c.isdigit()) / len(screen_name)
