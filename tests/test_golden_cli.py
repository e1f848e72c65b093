"""A fixed CLI sweep whose combined output must stay byte-identical.

``gen`` writes instances of every kind over Q, F_2 and F_101 for a few seeds
and ranks n <= 4; on each, ``verify`` (close and apartment strategies),
``distance``, ``compute-f`` and ``close-case`` run in-process.  The sha256 of
every command's exit code and stdout, in order, is pinned, so a change that
claims to leave results alone shows it here.  To re-pin after a deliberate
change of output, print ``golden_transcript`` and record its digest."""

import hashlib

from latticeval.cli import main

KINDS = (("triple", 2), ("triple", 3), ("close", 3), ("apartment", 2), ("apartment", 3))
FIELDS = ("rational", "prime:2", "prime:101")
RANKS = (2, 3, 4)
SEEDS = (0, 1)
COMMANDS = (("verify", "--strategy", "close", "--json"),
            ("verify", "--strategy", "apartment", "--json"),
            ("distance", "--json"),
            ("compute-f", "--json"),
            ("close-case",))

GOLDEN_SHA256 = "70a00e33b4fb5c1b435fced6bbb35c10411b0c39886583b27c019951759e6a4b"


def golden_transcript(capsys) -> str:
    """The exit codes and stdout of the sweep, run in the current directory."""
    parts = []

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        parts.append(f"$ {' '.join(argv)}\n[{code}]\n{out}")
        return out

    for kind, k in KINDS:
        for field in FIELDS:
            for n in RANKS:
                for seed in SEEDS:
                    with open("instance.json", "w") as fh:
                        fh.write(run("gen", "--kind", kind, "--field", field, "--n", str(n),
                                     "--k", str(k), "--seed", str(seed)))
                    for command, *options in COMMANDS:
                        run(command, "instance.json", *options)
    return "".join(parts)


def test_golden_cli_sweep(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    transcript = golden_transcript(capsys)
    assert hashlib.sha256(transcript.encode()).hexdigest() == GOLDEN_SHA256
