"""Tcl list handling.

A Tcl list is a string whose elements are separated by white space, with
braces grouping elements that themselves contain white space.
"""

from __future__ import annotations

import re

from repro.errors import TdlError
from repro.tdl.tokenizer import BRACED, split_words, unescape

#: Characters that make list parsing more than a split on white space.
_GROUPING = re.compile(r'[{}"\[\]\\]')
#: Characters that keep an element from being written as it is.
_SPECIALS = " \t\n;\"$[]{}\\"
_SPECIAL = re.compile("[" + re.escape(_SPECIALS) + "]")


def parse_list(text: str) -> list[str]:
    """Split a Tcl list string into its elements (no substitution)."""
    if _GROUPING.search(text) is None:
        return [element for element in
                text.replace("\t", " ").replace("\n", " ").split(" ")
                if element]
    elements: list[str] = []
    # Newlines are element separators inside lists.
    for kind, word in split_words(text.replace("\n", " ")):
        if kind == BRACED:
            elements.append(word)
        else:
            elements.append(unescape(word))
    return elements


def _braces_balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def format_element(element: str) -> str:
    """Quote one element so that parse_list round-trips it."""
    if _SPECIAL.search(element) is None:
        return element if element else "{}"
    if _braces_balanced(element) and not element.endswith("\\"):
        return "{" + element + "}"
    # Unbalanced braces (or trailing backslash): escape every special.
    out = []
    for ch in element:
        if ch in _SPECIALS:
            out.append("\\" + ("n" if ch == "\n" else "t" if ch == "\t" else ch))
        else:
            out.append(ch)
    return "".join(out)


def format_list(elements: list[str]) -> str:
    """Join elements into a Tcl list string."""
    return " ".join(map(format_element, elements))


def list_index(text: str, index: int) -> str:
    elements = parse_list(text)
    if not 0 <= index < len(elements):
        raise TdlError(f"list index {index} out of range")
    return elements[index]
