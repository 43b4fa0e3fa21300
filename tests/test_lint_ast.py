"""AST discipline lint: good and bad fixtures per rule, suppressions."""

import pathlib

from repro.lint import RULES, lint_file, lint_paths, lint_source

FIXTURES = pathlib.Path(__file__).resolve().parent / "lint_fixtures"
SRC_TREE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def codes(findings):
    return sorted({f.code for f in findings})


# ------------------------------------------------------------- bad fixtures
def test_unguarded_push_fixture_fires_p5l001():
    findings = lint_file(FIXTURES / "bad_unguarded_push.py")
    assert codes(findings) == ["P5L001"]
    (finding,) = findings
    assert finding.subject == "UnguardedPusher"
    assert finding.line is not None and finding.file is not None


def test_unguarded_pop_fixture_fires_p5l002():
    findings = lint_file(FIXTURES / "bad_unguarded_pop.py")
    assert codes(findings) == ["P5L002"]
    assert len(findings) == 2      # both the peek and the pop


def test_bare_flag_fixture_fires_p5l003():
    findings = lint_file(FIXTURES / "bad_bare_flag.py")
    assert codes(findings) == ["P5L003"]
    assert {f.subject for f in findings} == {"0x7E", "0x7D"}


def test_foreign_channel_fixture_fires_p5l004():
    findings = lint_file(FIXTURES / "bad_foreign_channel.py")
    assert codes(findings) == ["P5L004"]


def test_good_fixture_is_clean():
    assert lint_file(FIXTURES / "good_module.py") == []


# --------------------------------------------------------- guard analysis
def test_guard_in_enclosing_if_dominates():
    source = """
class M:
    def clock(self):
        if self.inp.can_pop and self.out.can_push:
            self.out.push(self.inp.pop())
"""
    assert lint_source(source) == []


def test_early_return_guard_dominates_rest_of_block():
    source = """
class M:
    def clock(self):
        if not self.inp.can_pop:
            return
        beat = self.inp.peek()
        self.inp.pop()
        del beat
"""
    assert lint_source(source) == []


def test_channel_truth_test_counts_as_pop_guard():
    source = """
class M:
    def clock(self):
        if not self.inp:
            return
        octets, sof, eof = self.inp.peek()
        self.inp.pop()
        if self.other and self.out.can_push:
            self.out.push(self.other.pop())
"""
    assert lint_source(source) == []


def test_truth_test_of_another_channel_does_not_guard_pop():
    source = """
class M:
    def clock(self):
        if self.other:
            self.inp.pop()
"""
    assert codes(lint_source(source)) == ["P5L002"]


def test_room_arithmetic_counts_as_push_guard():
    source = """
class M:
    def clock(self):
        if self.out.capacity - self.out.occupancy < 3:
            self.note_stall()
            return
        while self.carry:
            self.out.push(self.carry.pop(0))
"""
    assert lint_source(source) == []


def test_guard_on_wrong_channel_does_not_dominate():
    source = """
class M:
    def clock(self):
        if self.other.can_push:
            self.out.push(1)
"""
    assert codes(lint_source(source)) == ["P5L001"]


def test_non_terminating_early_if_does_not_guard_after():
    source = """
class M:
    def clock(self):
        if not self.out.can_push:
            self.note_stall()
        self.out.push(1)
"""
    assert codes(lint_source(source)) == ["P5L001"]


def test_only_clock_bodies_are_checked():
    source = """
class Helper:
    def flush(self):
        self.out.push(1)

def free_function(ch):
    ch.push(2)
"""
    assert lint_source(source) == []


def test_dict_pop_and_list_pop_with_args_ignored():
    source = """
class M:
    def clock(self):
        self.table.pop("key")
        self.items.pop(0)
"""
    assert lint_source(source) == []


def test_framing_literal_in_docstring_not_flagged():
    source = '''
def f():
    """Frames are delimited by 0x7E and escaped by 0x7D."""
    return 0
'''
    assert lint_source(source) == []


def test_decimal_125_and_126_not_flagged():
    """Only the hex spelling claims to be a framing octet: decimal 125
    is the SONET frame period in microseconds, not an escape octet."""
    source = "PERIOD_US = 125\nframes = 126\n"
    assert lint_source(source) == []
    assert codes(lint_source("FLAG = 0x7E\n")) == ["P5L003"]


def test_constants_module_may_define_the_octets():
    source = "FLAG_OCTET = 0x7E\nESC_OCTET = 0x7D\n"
    assert lint_source(source, "src/repro/hdlc/constants.py") == []
    assert codes(lint_source(source, "src/repro/other.py")) == ["P5L003"]


# ------------------------------------------------------------ suppressions
def test_line_suppression_by_code():
    source = "FLAG = 0x7E  # lint: ignore[P5L003]\n"
    assert lint_source(source) == []


def test_bare_suppression_silences_all_rules_on_line():
    source = """
class M:
    def clock(self):
        self.out.push(1)  # lint: ignore
"""
    assert lint_source(source) == []


def test_suppression_for_other_code_does_not_apply():
    source = "FLAG = 0x7E  # lint: ignore[P5L001]\n"
    assert codes(lint_source(source)) == ["P5L003"]


def test_syntax_error_reported_not_raised():
    findings = lint_source("def broken(:\n", "broken.py")
    assert len(findings) == 1
    assert "does not parse" in findings[0].message


# -------------------------------------------------------------- whole tree
def test_full_shipped_tree_lints_clean():
    """The acceptance gate: the real source obeys its own discipline."""
    findings = lint_paths([SRC_TREE])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_examples_and_benchmarks_lint_clean():
    """Regression: the figure benches and examples spell the framing
    octets via repro.hdlc.constants, not bare hex literals."""
    root = SRC_TREE.parent.parent
    findings = lint_paths([root / "examples", root / "benchmarks"])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_lint_paths_over_fixture_directory_finds_all_rules():
    findings = lint_paths([FIXTURES])
    assert {"P5L001", "P5L002", "P5L003", "P5L004"} <= set(codes(findings))


def test_every_ast_rule_is_registered():
    for code in ("P5L001", "P5L002", "P5L003", "P5L004"):
        assert code in RULES
        assert RULES[code].rationale
