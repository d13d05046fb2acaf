"""The clean corpora of tools/answers.py at seed 0, run in process.

No definite verdict contradicts the dense oracle, and neither diagnose nor
verify raises.  The noisy corpus stays out: its inputs sit within a few
orders of magnitude of the rank cut, where the Schur and semidefinite rules
still contradict the oracle (ROADMAP items 2 and 3).
"""

from _families import answers_tool


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
