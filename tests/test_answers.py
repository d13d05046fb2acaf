"""The clean corpora of tools/answers.py at seed 0, run in process.

No definite verdict contradicts the dense oracle, neither diagnose nor
verify raises, and R agrees with its stacked reference.  The noisy corpus
stays out: its inputs sit within a few orders of magnitude of the rank cut,
where the Schur and semidefinite rules still contradict the oracle (ROADMAP
items 2 and 3).
"""

from _families import answers_tool
from dsaddle import condition_report, range_intersection_trivial


def test_clean_corpora_agree_with_the_oracle():
    answers = answers_tool()
    lines = 0
    for name, corpus in answers.CORPORA:
        if name == "noisy":
            continue
        for i, system in enumerate(corpus(0)):
            fields, contradiction = answers.answer(system)
            assert not contradiction, (name, i, fields)
            assert not any(f.startswith(("diagnose-error", "verify-error")) for f in fields), \
                (name, i, fields)
            lines += 1
    assert lines == 661  # 61 family, 300 spec and 300 hand-valued systems


def test_r_matches_its_stacked_reference_on_the_clean_corpora():
    """R as diagnose reads it decides as the stacked test of the two range
    complements, also on the hand corpus's exactly coincident integer ranges."""
    answers = answers_tool()
    for name, corpus in answers.CORPORA:
        if name == "noisy":
            continue
        for i, system in enumerate(corpus(0)):
            holds, _ = range_intersection_trivial(system.B, system.C.T)
            assert condition_report(system).holds("R") == holds, (name, i)


def test_cli_transcript_reaches_every_exit_and_repeats(capsys):
    """tools/cli_answers.py runs, reaches exits 0, 1, 2, 64 and 65, and prints
    the same bytes twice."""
    tool = answers_tool("cli_answers")
    assert tool.main() == 0
    first = capsys.readouterr().out
    assert tool.main() == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert lines[-1].startswith("transcript sha256 ")
    assert len(lines) == 1 + len(list(tool.invocations()))
    exits = {line.split(" exit=")[1].split()[0] for line in lines[:-1]}
    assert exits == {"0", "1", "2", "64", "65"}
