"""Tcl-style script tokenization.

Faithful to the small core of Tcl the thesis uses:

* commands are separated by newlines or semicolons (outside any grouping);
* ``{...}`` groups a word literally (no substitution), nestable;
* ``"..."`` groups a word with substitution;
* ``[...]`` is command substitution, ``$name``/``${name}`` variable
  substitution (performed later, by the interpreter — the tokenizer only
  finds word boundaries);
* ``#`` at a command position starts a comment;
* ``\\`` escapes the next character; a backslash-newline joins lines.
"""

from __future__ import annotations

from repro.errors import TdlError


def strip_comments_and_split(script: str) -> list[str]:
    """Split a script into command strings.

    Returns the raw text of each command (with grouping intact), skipping
    blank commands and ``#`` comments.

    Leading lines that are whole commands by themselves (no quote,
    backslash, bracket, semicolon or ``#``, and only unnested braces that
    close on the line) are taken a line at a time; the general scan takes
    the rest of the script from the first other line on.
    """
    commands: list[str] = []
    pos = 0
    n = len(script)
    while pos < n:
        end = script.find("\n", pos)
        if end < 0:
            end = n
        line = script[pos:end]
        if not _whole_line(line):
            return commands + _split_script(script[pos:])
        text = line.strip()
        if text:
            commands.append(text)
        pos = end + 1
    return commands


def _whole_line(line: str) -> bool:
    if '"' in line or "\\" in line or "[" in line or ";" in line \
            or "#" in line:
        return False
    pieces = line.split("{")
    return "}" not in pieces[0] and all(piece.count("}") == 1
                                        for piece in pieces[1:])


def _split_script(script: str) -> list[str]:
    """:func:`strip_comments_and_split` by a character scan."""
    commands: list[str] = []
    buf: list[str] = []
    depth_brace = 0
    depth_bracket = 0
    in_quote = False
    i = 0
    n = len(script)
    at_command_start = True
    in_comment = False
    while i < n:
        ch = script[i]
        if in_comment:
            if ch == "\n":
                in_comment = False
                at_command_start = True
            i += 1
            continue
        if ch == "\\" and i + 1 < n:
            buf.append(script[i:i + 2])
            at_command_start = False
            i += 2
            continue
        if not in_quote:
            if ch == "{":
                depth_brace += 1
            elif ch == "}":
                depth_brace -= 1
                if depth_brace < 0:
                    raise TdlError("unbalanced '}'")
            elif ch == "[" and depth_brace == 0:
                depth_bracket += 1
            elif ch == "]" and depth_brace == 0:
                depth_bracket = max(0, depth_bracket - 1)
            elif ch == '"' and depth_brace == 0:
                in_quote = True
        elif ch == '"':
            in_quote = False
        top = depth_brace == 0 and depth_bracket == 0 and not in_quote
        if top and ch in "\n;":
            text = "".join(buf).strip()
            if text:
                commands.append(text)
            buf = []
            at_command_start = True
            i += 1
            continue
        if top and at_command_start and ch == "#":
            in_comment = True
            i += 1
            continue
        if at_command_start and ch in " \t":
            i += 1
            continue
        buf.append(ch)
        if ch not in " \t":
            at_command_start = False
        i += 1
    if depth_brace != 0:
        raise TdlError("unbalanced '{'")
    if in_quote:
        raise TdlError("unterminated quote")
    text = "".join(buf).strip()
    if text:
        commands.append(text)
    return commands


#: Word kinds produced by :func:`split_words`.
BARE, BRACED, QUOTED = "bare", "braced", "quoted"

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"',
            "$": "$", "[": "[", "]": "]", "{": "{", "}": "}", ";": ";",
            " ": " ", "\n": " "}


def unescape(text: str) -> str:
    """Resolve backslash escapes in bare/quoted word text."""
    if "\\" not in text:
        return text
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append(_ESCAPES.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def split_words(command: str) -> list[tuple[str, str]]:
    """Split one command into ``(kind, text)`` words.

    ``braced`` text has the outer braces removed and is substitution-free;
    ``quoted`` has the quotes removed; ``bare`` is as written.  Substitution
    of ``$`` and ``[...]`` inside bare/quoted words is the interpreter's job.
    """
    if '"' not in command and "\\" not in command and "[" not in command:
        words = _split_flat(command)
        if words is not None:
            return words
    return _split_general(command)


def _split_general(command: str) -> list[tuple[str, str]]:
    """:func:`split_words` by a character scan: every word form."""
    words: list[tuple[str, str]] = []
    i = 0
    n = len(command)
    while i < n:
        while i < n and command[i] in " \t":
            i += 1
        if i >= n:
            break
        ch = command[i]
        if ch == "{":
            depth = 1
            j = i + 1
            while j < n and depth:
                if command[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if command[j] == "{":
                    depth += 1
                elif command[j] == "}":
                    depth -= 1
                j += 1
            if depth:
                raise TdlError(f"unbalanced braces in {command!r}")
            words.append((BRACED, command[i + 1:j - 1]))
            i = j
        elif ch == '"':
            j = i + 1
            while j < n:
                if command[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if command[j] == '"':
                    break
                if command[j] == "[":
                    j = skip_bracket(command, j)
                    continue
                j += 1
            if j >= n:
                raise TdlError(f"unterminated quote in {command!r}")
            words.append((QUOTED, command[i + 1:j]))
            i = j + 1
        else:
            j = i
            while j < n and command[j] not in " \t":
                if command[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if command[j] == "[":
                    j = skip_bracket(command, j)
                    continue
                j += 1
            words.append((BARE, command[i:j]))
            i = j
    return words


def _bare_words(text: str) -> list[tuple[str, str]]:
    """The bare words of ``text``, which holds no grouping character."""
    return [(BARE, word) for word in text.replace("\t", " ").split(" ")
            if word]


def _split_flat(command: str) -> list[tuple[str, str]] | None:
    """:func:`split_words` of a command made of bare words and unnested
    ``{...}`` words, in linear time; None for any other command.

    The caller has ruled out quotes, backslashes and brackets.  A braced
    word must start a word and end one (``{a}b`` and ``a{b}`` fall back),
    and only space and tab separate words, as in the general loop.
    """
    pieces = command.split("{")
    before = pieces[0]
    if "}" in before:
        return None
    words = _bare_words(before)
    for piece in pieces[1:]:
        if before and before[-1] not in " \t":
            return None
        inner, close, after = piece.partition("}")
        if not close or "}" in after or (after and after[0] not in " \t"):
            return None
        words.append((BRACED, inner))
        if after.strip(" \t"):         # most often just the separator
            words += _bare_words(after)
        before = after
    return words


def skip_bracket(text: str, start: int) -> int:
    """Index just past the ``]`` matching the ``[`` at ``start``."""
    depth = 0
    i = start
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            i += 2
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise TdlError(f"unbalanced brackets in {text!r}")


def find_substitutions(text: str) -> list[tuple[int, int, str, str]]:
    """Locate ``$var``, ``${var}`` and ``[script]`` spans in a word.

    Returns ``(start, end, kind, payload)`` with kind ``var`` or ``cmd``.
    """
    spans: list[tuple[int, int, str, str]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            i += 2
            continue
        if ch == "[":
            end = skip_bracket(text, i)
            spans.append((i, end, "cmd", text[i + 1:end - 1]))
            i = end
            continue
        if ch == "$" and i + 1 < n:
            if text[i + 1] == "{":
                close = text.find("}", i + 2)
                if close < 0:
                    raise TdlError(f"unterminated ${{ in {text!r}")
                spans.append((i, close + 1, "var", text[i + 2:close]))
                i = close + 1
                continue
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            if j > i + 1:
                spans.append((i, j, "var", text[i + 1:j]))
                i = j
                continue
        i += 1
    return spans


#: A compiled word is either a ``str`` (its final value: braced text, or
#: bare/quoted text without substitutions, already unescaped) or a tuple of
#: parts, each a literal ``str`` or a ``(kind, payload)`` pair with the
#: ``var``/``cmd`` kinds of :func:`find_substitutions`.
Word = str | tuple


def compile_word(kind: str, text: str) -> Word:
    """Resolve everything about a word that does not depend on run time."""
    if kind == BRACED:
        return text
    spans = find_substitutions(text)
    if not spans:
        return unescape(text)
    parts: list = []
    pos = 0
    for start, end, sub_kind, payload in spans:
        if start > pos:
            parts.append(unescape(text[pos:start]))
        parts.append((sub_kind, payload))
        pos = end
    if pos < len(text):
        parts.append(unescape(text[pos:]))
    return tuple(parts)
