"""The program's observable outputs are the ones ``golden_digests.txt``
pins: every output of ``output_digests.py`` except the ``c05`` and
``c06`` reports (which the acceptance tests of those names check),
recomputed from cold memos, the CLI requests run through ``cli.main``
in this process.

A digest that differs names its output.  A change meant to alter an
output regenerates the file (see ``output_digests.py``) and says why.
The ``expand product:A2`` lines pin the known-wrong A2 literal product;
the strict xfails of ``test_borcherds.py`` keep that defect visible."""

import output_digests


def test_outputs_equal_the_golden_digests(fresh_memos):
    want = {name: d for name, d in output_digests.golden().items()
            if not name.startswith(("c05 ", "c06 "))}
    got = {name: output_digests.sha(data)
           for name, data in output_digests.outputs(False, output_digests.cli_in_process)}
    assert len(got) == len(want) == 92
    differ = sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))
    assert not differ, "outputs that differ from golden_digests.txt:\n" + "\n".join(differ)
