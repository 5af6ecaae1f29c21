"""The Tcl-subset interpreter.

Everything is a string.  The interpreter keeps a frame stack for ``proc``
locals, a command table that extension layers (TDL, the task manager) add to
— the "dynamic binding" that made Tcl attractive to the thesis — and
optional *read traces*: callbacks fired when a named variable is about to be
substituted.  The task manager uses a read trace on ``status`` to synchronize
with the most recently issued design step before its exit code is inspected.

Parsing is cached per interpreter, keyed by source text: a script passed to
:meth:`Interp.eval` (loop and proc bodies, ``[...]``) is split into commands
once, each command into compiled words once, and each expression into a
closure tree once.  Only the parse is cached; every execution still
substitutes and runs every command.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import TdlError, TdlReturn
from repro.tdl import expr as _expr
from repro.tdl.lists import format_list
from repro.tdl.tokenizer import (
    BARE,
    Word,
    compile_word,
    split_words,
    strip_comments_and_split,
)

Command = Callable[["Interp", list[str]], str]
TopHook = Callable[[int, str], None]


class _Frame:
    __slots__ = ("vars", "linked")

    def __init__(self):
        self.vars: dict[str, str] = {}
        self.linked: set[str] = set()


class Interp:
    """One interpreter instance (one task manager runs one of these)."""

    #: Guard against runaway scripts in tests and benchmarks.
    MAX_COMMANDS = 2_000_000

    def __init__(self):
        self._globals = _Frame()
        self._frames: list[_Frame] = [self._globals]
        self.commands: dict[str, Command] = {}
        self.procs: dict[str, tuple[list[tuple[str, str | None]], str]] = {}
        self.read_traces: dict[str, Callable[["Interp"], None]] = {}
        self.stdout: list[str] = []
        self._executed = 0
        #: Compile caches, keyed by source text; they live and die with
        #: this interpreter.
        self._scripts: dict[str, tuple[CompiledCommand, ...]] = {}
        self._exprs: dict[str, object] = {}
        from repro.tdl import builtins as _builtins

        _builtins.install(self)

    # -------------------------------------------------------------- variables

    @property
    def frame(self) -> _Frame:
        return self._frames[-1]

    def get_var(self, name: str) -> str:
        trace = self.read_traces.get(name)
        if trace is not None:
            trace(self)
        frame = self.frame
        if name in frame.linked:
            frame = self._globals
        if name not in frame.vars:
            raise TdlError(f'can\'t read "{name}": no such variable')
        return frame.vars[name]

    def set_var(self, name: str, value: str) -> str:
        frame = self.frame
        if name in frame.linked:
            frame = self._globals
        frame.vars[name] = value
        return value

    def unset_var(self, name: str) -> None:
        frame = self.frame
        if name in frame.linked:
            frame = self._globals
        frame.vars.pop(name, None)

    def has_var(self, name: str) -> bool:
        frame = self.frame
        if name in frame.linked:
            frame = self._globals
        return name in frame.vars

    def link_global(self, name: str) -> None:
        if self.frame is not self._globals:
            self.frame.linked.add(name)

    def reset_variables(self) -> None:
        """Drop all variables (used on restart-from-scratch)."""
        self._globals.vars.clear()
        self._frames = [self._globals]

    # ------------------------------------------------------------ commands

    def register(self, name: str, func: Command) -> None:
        self.commands[name] = func

    # ---------------------------------------------------------- compilation

    def compiled_script(self, script: str) -> tuple["CompiledCommand", ...]:
        """The commands of ``script``, split once per distinct text."""
        commands = self._scripts.get(script)
        if commands is None:
            commands = tuple(CompiledCommand(raw)
                             for raw in strip_comments_and_split(script))
            _remember(self._scripts, script, commands)
        return commands

    def compiled_expr(self, text: str):
        """The expression ``text`` compiled once per distinct text."""
        compiled = self._exprs.get(text)
        if compiled is None:
            compiled = _expr.compile_expr(text)
            _remember(self._exprs, text, compiled)
        return compiled

    # ---------------------------------------------------------- substitution

    def substitute(self, text: str) -> str:
        """Perform ``$var`` and ``[command]`` substitution plus escapes."""
        return self.expand_word(compile_word(BARE, text))

    def expand_word(self, word: Word) -> str:
        """The value of a compiled word (see :func:`compile_word`)."""
        if word.__class__ is str:
            return word
        out: list[str] = []
        for part in word:
            if part.__class__ is str:
                out.append(part)
            elif part[0] == "var":
                out.append(self.get_var(part[1]))
            else:
                out.append(self.eval(part[1]))
        return "".join(out)

    # ------------------------------------------------------------- evaluation

    def eval(self, script: str, top_hook: TopHook | None = None) -> str:
        """Evaluate a script; the result is the last command's result.

        ``top_hook(index, raw)`` is called before each command of *this*
        script — the task manager uses it to track top-level command IDs for
        programmable aborts (§4.3.4).  Nested evaluations (control-structure
        bodies, ``[...]``) don't pass a hook, so commands inside them share
        the enclosing top-level command's ID, exactly as the thesis specifies.
        """
        result = ""
        eval_command = self.eval_command
        for index, command in enumerate(self.compiled_script(script)):
            if top_hook is not None:
                top_hook(index, command.raw)
            result = eval_command(command)
        return result

    def eval_command(self, command: "str | CompiledCommand") -> str:
        """Execute one command, given as raw text or compiled.

        Raw text is compiled for this call only: top-level template commands
        run once per interpretation, so caching them would only hold memory.
        """
        self._executed += 1
        if self._executed > self.MAX_COMMANDS:
            raise TdlError("command budget exceeded (runaway script?)")
        if command.__class__ is str:
            words = _compile_words(command)
        else:
            words = command.words
            if words is None:
                words = command.words = _compile_words(command.raw)
        if not words:
            return ""
        expand = self.expand_word
        name = expand(words[0])
        args = [word if word.__class__ is str else expand(word)
                for word in words[1:]]
        if name in self.procs:
            return self._call_proc(name, args)
        func = self.commands.get(name)
        if func is None:
            raise TdlError(f'invalid command name "{name}"')
        return func(self, args)

    # ------------------------------------------------------------------ procs

    def define_proc(self, name: str, params: list[tuple[str, str | None]],
                    body: str) -> None:
        self.procs[name] = (params, body)

    def _call_proc(self, name: str, args: list[str]) -> str:
        params, body = self.procs[name]
        frame = _Frame()
        consumed = 0
        for i, (pname, default) in enumerate(params):
            if pname == "args" and i == len(params) - 1:
                frame.vars["args"] = format_list(args[consumed:])
                consumed = len(args)
                break
            if consumed < len(args):
                frame.vars[pname] = args[consumed]
                consumed += 1
            elif default is not None:
                frame.vars[pname] = default
            else:
                raise TdlError(
                    f'wrong # args: should be "{name} '
                    + " ".join(p for p, _ in params) + '"'
                )
        if consumed < len(args):
            raise TdlError(f'wrong # args for proc "{name}"')
        self._frames.append(frame)
        try:
            return self.eval(body)
        except TdlReturn as ret:
            return ret.value
        finally:
            self._frames.pop()

    # --------------------------------------------------------------- helpers

    def expr(self, text: str):
        """Evaluate an expression, substituting its ``$var`` and
        ``[command]`` operands as it goes (the ``expr`` semantics)."""
        return _expr.evaluate(self.compiled_expr(text), self)

    def condition(self, text: str) -> bool:
        return _expr.truthy(self.expr(text))


class CompiledCommand:
    """One command of a compiled script.

    Its words are compiled on first execution, so a malformed command raises
    when (and each time) it is reached, as it did before compilation.
    """

    __slots__ = ("raw", "words")

    def __init__(self, raw: str):
        self.raw = raw
        self.words: tuple[Word, ...] | None = None


def _compile_words(raw: str) -> tuple[Word, ...]:
    return tuple(compile_word(kind, text) for kind, text in split_words(raw))


#: Entries per compile cache.  Texts built from values (``eval $script``,
#: unbraced ``expr $a + $b``) are new on every execution; a full cache is
#: emptied, which bounds memory and costs the hot texts one recompilation.
_CACHE_SIZE = 512


def _remember(cache: dict, text: str, compiled) -> None:
    if len(cache) >= _CACHE_SIZE:
        cache.clear()
    cache[text] = compiled
