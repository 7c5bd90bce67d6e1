"""Every command line of the pinned grid gives the exit code, stdout and
stderr it gave when ``tests/cli_outputs.json`` was written
(``pin_cli_outputs.py`` holds the grid and rewrites the file)."""

import json
import shlex

from pin_cli_outputs import PINNED, changes, digest, grid


def test_cli_outputs_match_the_pins():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    lines = {shlex.join(argv): argv for argv in grid()}
    assert list(lines) == list(pinned), "the grid and the pinned lines differ"
    changed = [line for line, argv in lines.items() if digest(argv) != pinned[line]]
    assert changed == [], "outputs changed:\n" + "\n".join(changed)


def test_changes_name_each_moved_line():
    old = {"a": "1111111100", "b": "2222222200", "c": "3333333300"}
    new = {"a": "1111111100", "b": "4444444400", "d": "5555555500"}
    assert changes(old, new) == [
        "changed b (22222222… → 44444444…)",
        "added d (55555555…)",
        "dropped c (33333333…)",
    ]
    assert changes(new, new) == []
