"""Tests for the Tcl-subset interpreter and TDL template parsing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TdlError, TemplateError
from repro.tdl import Interp
from repro.tdl.expr import evaluate, format_result, truthy
from repro.tdl.lists import format_list, parse_list
from repro.tdl.template import (
    TemplateLibrary,
    parse_step_args,
    parse_subtask_args,
    parse_template,
)
from repro.tdl.tokenizer import (
    _split_general,
    _split_script,
    split_words,
    strip_comments_and_split,
)

#: Characters that matter to the tokenizer, plus plain letters.
_TCL_TEXT = st.text(alphabet='{}"[]\\$ \t\nab', max_size=16)
_TCL_SCRIPT = st.text(alphabet='{}"[]\\$ \t\n;#ab', max_size=24)


def _outcome(fn, text):
    try:
        return fn(text)
    except Exception as exc:        # the exception type is the outcome
        return type(exc)


@pytest.fixture
def interp() -> Interp:
    return Interp()


class TestTokenizer:
    def test_command_split(self):
        cmds = strip_comments_and_split("set a 1; set b 2\nset c 3")
        assert cmds == ["set a 1", "set b 2", "set c 3"]

    def test_comments_skipped(self):
        cmds = strip_comments_and_split("# a comment\nset a 1\n  # another\n")
        assert cmds == ["set a 1"]

    def test_braces_protect_separators(self):
        cmds = strip_comments_and_split("if {$a} {\nset b 1\n}")
        assert len(cmds) == 1

    def test_brackets_protect_separators(self):
        cmds = strip_comments_and_split("set a [cmd one; cmd two]")
        assert len(cmds) == 1

    def test_unbalanced_brace_raises(self):
        with pytest.raises(TdlError):
            strip_comments_and_split("set a {")

    def test_word_kinds(self):
        words = split_words('cmd bare {braced one} "quoted two"')
        assert words[0] == ("bare", "cmd")
        assert words[2] == ("braced", "braced one")
        assert words[3] == ("quoted", "quoted two")

    def test_nested_braces(self):
        words = split_words("set b {xyz {b c d}}")
        assert words[2] == ("braced", "xyz {b c d}")

    def test_flat_and_nested_braced_words(self):
        assert split_words("step s1 {a b}\t{c} {x  -o {}}") == [
            ("bare", "step"), ("bare", "s1"), ("braced", "a b"),
            ("braced", "c"), ("braced", "x  -o {}")]
        assert split_words("{a}{b} c") == [
            ("braced", "a"), ("braced", "b"), ("bare", "c")]
        assert split_words("{a}b a{b}") == [
            ("braced", "a"), ("bare", "b"), ("bare", "a{b}")]

    @settings(max_examples=2000, deadline=None)
    @given(_TCL_TEXT)
    def test_split_words_fast_path_matches_scan(self, text):
        assert _outcome(split_words, text) == _outcome(_split_general, text)

    @settings(max_examples=2000, deadline=None)
    @given(_TCL_SCRIPT)
    def test_script_split_fast_path_matches_scan(self, script):
        assert _outcome(strip_comments_and_split, script) == \
            _outcome(_split_script, script)


class TestListOps:
    def test_roundtrip(self):
        elements = ["a", "b c", "", "{d}", "e"]
        assert parse_list(format_list(elements)) == elements

    @given(st.lists(st.text(alphabet="abc {}", min_size=0, max_size=6)))
    def test_roundtrip_property(self, elements):
        # restrict to brace-balanced elements, as Tcl itself requires
        def balanced(text):
            depth = 0
            for ch in text:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth < 0:
                        return False
            return depth == 0

        elements = [e for e in elements if balanced(e)]
        assert parse_list(format_list(elements)) == elements


class TestExpr:
    @pytest.mark.parametrize("text,expected", [
        ("1 + 2 * 3", 7),
        ("(1 + 2) * 3", 9),
        ("10 / 4", 2),
        ("10.0 / 4", 2.5),
        ("7 % 3", 1),
        ("1 << 4", 16),
        ("5 > 3 && 2 < 1", 0),
        ("5 > 3 || 2 < 1", 1),
        ("!0", 1),
        ("-3 + 5", 2),
        ("3 == 3.0", 1),
        ('"abc" == "abc"', 1),
        ('"abc" != "abd"', 1),
    ])
    def test_evaluate(self, text, expected):
        assert evaluate(text) == expected

    def test_division_by_zero(self):
        with pytest.raises(TdlError):
            evaluate("1 / 0")

    def test_empty_expression(self):
        with pytest.raises(TdlError):
            evaluate("")

    def test_truthy(self):
        assert truthy(1) and truthy("2") and truthy(0.5)
        assert not truthy(0) and not truthy("0")

    def test_format_result(self):
        assert format_result(4) == "4"
        assert format_result(2.5) == "2.5"


class TestInterp:
    def test_variable_substitution_forms(self, interp):
        interp.eval("set a 100; set b fg")
        assert interp.eval("set c Zs${a}d$b") == "Zs100dfg"

    def test_braces_suppress_substitution(self, interp):
        interp.eval("set a 1")
        assert interp.eval("set b {$a}") == "$a"

    def test_command_substitution(self, interp):
        interp.eval("set a 3")
        assert interp.eval("set b [expr $a * 2]") == "6"

    def test_quoted_words_substitute(self, interp):
        interp.eval("set who world")
        assert interp.eval('set msg "hello $who"') == "hello world"

    def test_unknown_command(self, interp):
        with pytest.raises(TdlError):
            interp.eval("frobnicate 1 2")

    def test_unset_variable_read(self, interp):
        with pytest.raises(TdlError):
            interp.eval("set x $missing")

    def test_if_then_else_chain(self, interp):
        interp.eval("set a 5")
        result = interp.eval(
            "if {$a > 10} {set r big} elseif {$a > 3} {set r mid} "
            "else {set r small}"
        )
        assert result == "mid"

    def test_if_old_style_else(self, interp):
        interp.eval("set a 0")
        assert interp.eval("if {$a > 1} {set b 1} {set b 0}") == "0"

    def test_while_and_break_continue(self, interp):
        interp.eval("""
            set total 0
            set i 0
            while {$i < 10} {
                incr i
                if {$i == 3} {continue}
                if {$i == 6} {break}
                set total [expr $total + $i]
            }
        """)
        assert interp.get_var("total") == str(1 + 2 + 4 + 5)

    def test_foreach(self, interp):
        interp.eval("set s {}; foreach x {a b c} {append s $x}")
        assert interp.get_var("s") == "abc"

    def test_proc_locals_dont_leak(self, interp):
        interp.eval("proc p {} {set inner 42; return ok}")
        assert interp.eval("p") == "ok"
        assert not interp.has_var("inner")

    def test_proc_defaults_and_varargs(self, interp):
        interp.eval("proc f {a {b 2} args} {return $a-$b-[llength $args]}")
        assert interp.eval("f 1") == "1-2-0"
        assert interp.eval("f 1 5 x y") == "1-5-2"

    def test_proc_wrong_arity(self, interp):
        interp.eval("proc g {a} {return $a}")
        with pytest.raises(TdlError):
            interp.eval("g")
        with pytest.raises(TdlError):
            interp.eval("g 1 2")

    def test_global_links(self, interp):
        interp.eval("set counter 0")
        interp.eval("proc bump {} {global counter; incr counter}")
        interp.eval("bump; bump")
        assert interp.get_var("counter") == "2"

    def test_recursion(self, interp):
        interp.eval("""
            proc fact {n} {
                if {$n <= 1} {return 1}
                return [expr $n * [fact [expr $n - 1]]]
            }
        """)
        assert interp.eval("fact 6") == "720"

    def test_catch(self, interp):
        assert interp.eval("catch {expr 1/0} msg") == "1"
        assert "division" in interp.get_var("msg")
        assert interp.eval("catch {expr 1+1} msg") == "0"
        assert interp.get_var("msg") == "2"

    def test_read_trace_fires(self, interp):
        fired = []
        interp.read_traces["status"] = lambda i: fired.append(True) or \
            i.set_var("status", "0") if not i.has_var("status") else None
        interp.set_var("status", "1")
        interp.read_traces["status"] = lambda i: fired.append(True)
        assert interp.eval("set x $status") == "1"
        assert fired

    def test_top_hook_only_at_top_level(self, interp):
        seen = []
        interp.eval(
            "set a 1\nif {$a} {set b 2; set c 3}\nset d 4",
            top_hook=lambda idx, raw: seen.append(raw.split()[0]),
        )
        assert seen == ["set", "if", "set"]

    def test_command_budget(self, interp):
        interp.MAX_COMMANDS = 100
        with pytest.raises(TdlError):
            interp.eval("while {1} {set x 1}")

    def test_reset_variables(self, interp):
        interp.eval("set a 1")
        interp.reset_variables()
        assert not interp.has_var("a")

    def test_escapes(self, interp):
        assert interp.eval(r'set a "x\ty"') == "x\ty"
        interp.eval("set v 9")
        assert interp.eval(r"set b \$v") == "$v"


class TestTemplates:
    PADP = """
task Padp {Incell} {Outcell}
step Pads_Placement {Incell} {Outcell} {padplace -c -o Outcell Incell}
"""

    def test_parse_header(self):
        template = parse_template(self.PADP)
        assert template.name == "Padp"
        assert template.inputs == ("Incell",)
        assert template.outputs == ("Outcell",)
        assert len(template.body_commands) == 1

    def test_missing_task_command(self):
        with pytest.raises(TemplateError):
            parse_template("step S {a} {b} {tool a b}")

    def test_duplicate_formals(self):
        with pytest.raises(TemplateError):
            parse_template("task T {A A} {B}")

    def test_empty_template(self):
        with pytest.raises(TemplateError):
            parse_template("   \n  ")

    def test_library(self):
        lib = TemplateLibrary()
        lib.add_source(self.PADP)
        assert "Padp" in lib
        assert lib.get("Padp").name == "Padp"
        assert lib.names() == ["Padp"]
        with pytest.raises(TemplateError):
            lib.get("Nope")

    def test_step_spec_full(self):
        spec = parse_step_args([
            "1 Vertical_Compaction", "ppOutput", "Outcell1",
            "sparcs -v -t -o Outcell1 ppOutput",
            "ResumedStep 1", "NonMigrate", "ControlDependency 2 3",
        ])
        assert spec.declared_id == 1
        assert spec.name == "Vertical_Compaction"
        assert spec.resumed_step == 1
        assert not spec.migratable
        assert spec.control_deps == (2, 3)
        assert spec.tool == "sparcs"

    def test_step_spec_latest_resume(self):
        spec = parse_step_args(["S", "a", "b", "t a b", "ResumedStep latest"])
        assert spec.resumed_step == "latest"

    def test_step_spec_bad_option(self):
        with pytest.raises(TemplateError):
            parse_step_args(["S", "a", "b", "t", "Sparkle 1"])

    def test_step_spec_too_few_args(self):
        with pytest.raises(TemplateError):
            parse_step_args(["S", "a", "b"])

    def test_subtask_forms(self):
        three = parse_subtask_args(["Padp", "cell.logic", "cell.padp"])
        assert three.is_subtask and three.declared_id is None
        with_id = parse_subtask_args(["2", "Padp", "cell.logic", "cell.padp"])
        assert with_id.declared_id == 2
        braced = parse_subtask_args(["2 Padp", "in", "out"])
        assert braced.declared_id == 2 and braced.name == "Padp"

    def test_subtask_bad_forms(self):
        with pytest.raises(TemplateError):
            parse_subtask_args(["Padp", "in"])
        with pytest.raises(TemplateError):
            parse_subtask_args(["x", "Padp", "in", "out"])


class TestListExtras:
    def test_lsort(self, interp):
        assert interp.eval("lsort {pear apple mango}") == "apple mango pear"
        assert interp.eval("lsort -integer {10 2 33}") == "2 10 33"
        with pytest.raises(TdlError):
            interp.eval("lsort -integer {a b}")

    def test_lsearch(self, interp):
        assert interp.eval("lsearch {a b c} c") == "2"
        assert interp.eval("lsearch {a b c} z") == "-1"

    def test_linsert(self, interp):
        assert interp.eval("linsert {a c} 1 b") == "a b c"
        assert interp.eval("linsert {a b} end c d") == "a b c d"

    def test_lreplace(self, interp):
        assert interp.eval("lreplace {a b c d} 1 2 X Y") == "a X Y d"
        assert interp.eval("lreplace {a b c} 1 end") == "a"

    def test_lreverse(self, interp):
        assert interp.eval("lreverse {1 2 3}") == "3 2 1"


class TestIndices:
    def test_end_forms(self, interp):
        assert interp.eval("lindex {a b c} end") == "c"
        assert interp.eval("lindex {a b c} end-1") == "b"
        assert interp.eval("lindex {a b c} end-5") == ""
        assert interp.eval("lrange {a b c d} 1 end-1") == "b c"
        assert interp.eval("lrange {a b c d} end-1 end") == "c d"
        assert interp.eval("lrange {a b c} 2 1") == ""
        assert interp.eval("linsert {a b c} end-1 X") == "a b X c"
        assert interp.eval("lreplace {a b c d} end-1 end X") == "a b X"
        assert interp.eval("string index abcd end") == "d"
        assert interp.eval("string index abcd end-3") == "a"
        assert interp.eval("string range abcdef 1 end-1") == "bcde"
        assert interp.eval("string range abcdef end-2 end") == "def"

    @pytest.mark.parametrize("script", [
        "lindex {a b} x",
        "lrange {a b} 0 endx",
        "linsert {a b} one X",
        "lreplace {a b} end-x end",
        "string index abc two",
        "string range abc 0 e",
        "incr n x",
        "set n abc; incr n",
    ])
    def test_bad_integers_raise_tdl_error(self, interp, script):
        with pytest.raises(TdlError):
            interp.eval(script)


class TestBracedExpr:
    def test_braced_substitutes_at_evaluation(self, interp):
        interp.eval("set a 3; set b 4")
        assert interp.eval("expr {$a + $b}") == "7"
        interp.eval("set b 10")
        assert interp.eval("expr {$a + $b}") == "13"

    def test_for_loop_with_braced_expr(self, interp):
        interp.eval("""
            set total 0
            for {set i 0} {$i < 10} {incr i} {
                set total [expr {$total + $i * $i}]
            }
        """)
        assert interp.get_var("total") == "285"

    def test_command_inside_braced_expr(self, interp):
        interp.eval("set xs {a b c d}")
        assert interp.eval("expr {[llength $xs] * 2}") == "8"
        assert interp.eval("expr {[lindex $xs end] == \"d\"}") == "1"

    def test_value_is_one_operand(self, interp):
        interp.eval("set x {1 + 2}")
        with pytest.raises(TdlError):
            interp.eval("expr {$x * 2}")
        # Unbraced, the value is spliced into the text first (as in Tcl).
        assert interp.eval("expr $x * 2") == "5"

    def test_arguments_concatenate_then_substitute(self, interp):
        interp.eval("set a 5")
        assert interp.eval("expr {$a} + 1") == "6"

    def test_string_equality_in_if(self, interp):
        interp.eval('set name {hello world}')
        assert interp.eval(
            'if {$name == "hello world"} {set r yes} else {set r no}'
        ) == "yes"
        assert interp.eval('if {$name != "hello world"} {set r 1} '
                           'else {set r 0}') == "0"

    def test_logical_operators_short_circuit(self, interp):
        interp.eval("set hits 0")
        interp.eval("expr {0 && [incr hits]}")
        interp.eval("expr {1 || [incr hits]}")
        assert interp.get_var("hits") == "0"
        assert interp.eval("expr {1 && [incr hits]}") == "1"
        assert interp.get_var("hits") == "1"

    def test_constant_error_raises_only_when_reached(self, interp):
        assert interp.eval("expr {0 && 1 / 0}") == "0"
        with pytest.raises(TdlError):
            interp.eval("expr {1 && 1 / 0}")

    def test_substitution_needs_an_interpreter(self):
        with pytest.raises(TdlError):
            evaluate("$a + 1")

    _names = st.sampled_from(["a", "b", "c"])

    @staticmethod
    def _expressions(names):
        leaves = st.one_of(
            st.integers(0, 50).map(lambda n: (str(n), n)),
            names.map(lambda v: ("$" + v, v)),
        )
        ops = st.sampled_from(["+", "-", "*", "<", "==", "&&", "||"])

        def combine(children):
            return st.tuples(children, ops, children).map(
                lambda t: (f"({t[0][0]} {t[1]} {t[2][0]})",
                           (t[1], t[0][1], t[2][1])))

        return st.recursive(leaves, combine, max_leaves=8)

    @staticmethod
    def _reference(tree, env):
        if isinstance(tree, int):
            return tree
        if isinstance(tree, str):
            return env[tree]
        op, left, right = tree
        lv = TestBracedExpr._reference(left, env)
        rv = TestBracedExpr._reference(right, env)
        return {"+": lambda: lv + rv, "-": lambda: lv - rv,
                "*": lambda: lv * rv, "<": lambda: int(lv < rv),
                "==": lambda: int(lv == rv),
                "&&": lambda: int(bool(lv) and bool(rv)),
                "||": lambda: int(bool(lv) or bool(rv))}[op]()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cold_warm_and_reference_agree(self, data):
        expression, tree = data.draw(self._expressions(self._names))
        interp = Interp()
        for _ in range(3):
            env = {name: data.draw(st.integers(-20, 20)) for name in "abc"}
            for name, value in env.items():
                interp.set_var(name, str(value))
            expected = str(self._reference(tree, env))
            cold = Interp()
            for name, value in env.items():
                cold.set_var(name, str(value))
            assert cold.eval(f"expr {{{expression}}}") == expected
            # ``interp`` keeps its cache across draws: warm after the first.
            assert interp.eval(f"expr {{{expression}}}") == expected
            assert interp.eval(
                f"if {{{expression}}} {{set r 1}} else {{set r 0}}"
            ) == str(int(expected != "0"))


class TestCompileCache:
    def test_parse_work_bounded_by_distinct_texts(self, interp, monkeypatch):
        from repro.tdl import interp as interp_module

        calls = {"split_words": 0, "strip_comments_and_split": 0}

        def counting(name):
            original = getattr(interp_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(interp_module, name, wrapper)

        counting("split_words")
        counting("strip_comments_and_split")
        interp.eval("""
            proc step2 {x} { return [expr {$x * 2}] }
            set total 0
            set i 0
            while {$i < 20000} {
                set total [expr {$total + [step2 $i]}]
                if {$i % 2 == 0} { incr total } else { incr total -1 }
                incr i
            }
        """)
        assert interp.get_var("total") == str(2 * sum(range(20000)))
        # One split per distinct script text and one word split per
        # distinct command -- a few dozen, independent of the 20k passes.
        assert calls["strip_comments_and_split"] <= 10
        assert calls["split_words"] <= 30

    def test_caches_are_per_interpreter(self):
        first, second = Interp(), Interp()
        first.eval("set a 1; while {$a < 3} {incr a}")
        assert first._scripts and first._exprs
        assert not second._scripts and not second._exprs

    def test_value_texts_do_not_grow_the_cache(self, interp):
        interp.eval("""
            set acc 0
            for {set i 0} {$i < 3000} {incr i} {
                set acc [expr $acc + $i]
            }
        """)
        assert interp.get_var("acc") == str(sum(range(3000)))
        from repro.tdl.interp import _CACHE_SIZE

        assert len(interp._exprs) <= _CACHE_SIZE
        assert len(interp._scripts) <= _CACHE_SIZE

    def test_malformed_command_raises_when_reached(self, interp):
        with pytest.raises(TdlError):
            interp.eval("set x 1; set y [unclosed")
        # Commands before the malformed one ran, as before compilation.
        assert interp.get_var("x") == "1"
        for _ in range(2):
            with pytest.raises(TdlError):
                interp.eval("set y [unclosed")
