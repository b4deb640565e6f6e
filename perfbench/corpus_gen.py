"""Seeded synthetic MQM corpora for the benchmark.

The recipe is the one of ``tests/conftest.py::robustness_corpus_rows``, with
the number of words per token class (source, target, junk) as an extra
argument. At the default of 30 words per class (a 92-token scorer
vocabulary) it reproduces that fixture row for row; ``--self-check``
verifies this against the test suite's own copy.

Only TSV files are written: the program under test reads them like any
other corpus.

    python3 perfbench/corpus_gen.py --self-check
"""

from __future__ import annotations

import csv
import random
import sys
from pathlib import Path

DEFAULT_WORDS_PER_CLASS = 30

SEGMENTS_HEADER = ["lang_pair", "domain", "doc_id", "seg_id", "source_text"]
OUTPUTS_HEADER = ["lang_pair", "domain", "system_id", "seg_id", "is_human", "text"]
REFERENCES_HEADER = ["lang_pair", "domain", "ref_id", "seg_id", "text"]
RATINGS_HEADER = [
    "lang_pair", "domain", "system_id", "seg_id", "annotator_id",
    "category", "severity", "span_start", "span_end",
]
FILES = (
    ("segments.tsv", SEGMENTS_HEADER),
    ("system_outputs.tsv", OUTPUTS_HEADER),
    ("references.tsv", REFERENCES_HEADER),
    ("mqm_ratings.tsv", RATINGS_HEADER),
)


def corpus_rows(
    n_systems: int,
    n_segments: int,
    seed: int,
    words_per_class: int = DEFAULT_WORDS_PER_CLASS,
):
    """(segments, outputs, references, ratings) rows of one en-de corpus.

    Each annotated error corrupts one reference token with a junk word, so
    overlap metrics correlate with the MQM penalties; every 25th segment has
    no error-free translation. The random draws are made in the fixture's
    order, so the vocabulary size changes only which words are drawn.
    """
    rng = random.Random(seed)
    lang_pair, domain = "en-de", "news"
    src_vocab = [f"src{i}" for i in range(words_per_class)]
    tgt_vocab = [f"wort{i}" for i in range(words_per_class)]
    junk_vocab = [f"junk{i}" for i in range(words_per_class)]

    segments, outputs, references, ratings = [], [], [], []
    for i in range(n_segments):
        seg_id = f"seg{i:03d}"
        source = " ".join(rng.choice(src_vocab) for _ in range(8))
        ref_tokens = [rng.choice(tgt_vocab) for _ in range(8)]
        segments.append([lang_pair, domain, f"doc{i // 10}", seg_id, source])
        references.append([lang_pair, domain, "refA", seg_id, " ".join(ref_tokens)])
        no_error_free = i % 25 == 24
        for s in range(n_systems):
            system_id = f"sys{s + 1}"
            if no_error_free:
                n_errors = rng.randint(1, 3)
            else:
                n_errors = rng.choice([0, 0, 0, 1, 1, 2, 3])
                if rng.random() < s / (2 * n_systems) and n_errors < len(ref_tokens) - 1:
                    n_errors += 1
            tokens = ref_tokens[:]
            for position in rng.sample(range(len(tokens)), rng.choice([0, 1, 1, 2])):
                tokens[position] = rng.choice(tgt_vocab)
            for position in rng.sample(range(len(tokens)), n_errors):
                tokens[position] = rng.choice(junk_vocab)
            outputs.append([lang_pair, domain, system_id, seg_id, "0", " ".join(tokens)])
            for annotator in ("ann1", "ann2"):
                if n_errors == 0:
                    ratings.append(
                        [lang_pair, domain, system_id, seg_id, annotator, "",
                         "no-error", "", ""]
                    )
                    continue
                for e in range(n_errors):
                    severity = "major" if (e + s + i) % 3 == 0 else "minor"
                    category = (
                        "fluency/punctuation" if (e + i) % 4 == 0
                        else "accuracy/mistranslation"
                    )
                    ratings.append(
                        [lang_pair, domain, system_id, seg_id, annotator,
                         category, severity, "", ""]
                    )
        outputs.append(
            [lang_pair, domain, "human-B", seg_id, "1", " ".join(ref_tokens[::-1])]
        )
    return segments, outputs, references, ratings


def write_corpus_tsvs(directory: Path, rows) -> dict[str, Path]:
    """Write the four corpus TSVs; returns {file name: path}."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for (name, header), table in zip(FILES, rows):
        path = directory / name
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, delimiter="\t", quoting=csv.QUOTE_NONE,
                                lineterminator="\n")
            writer.writerow(header)
            writer.writerows(table)
        paths[name] = path
    return paths


def self_check(root: Path) -> list[str]:
    """Compare against the test fixture at the default vocabulary.

    Returns a list of mismatch descriptions (empty when all sizes agree).
    """
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import conftest  # the test suite's fixture module

    problems = []
    for n_systems, n_segments in ((6, 50), (12, 200), (10, 1000), (3, 7)):
        expected = conftest.robustness_corpus_rows(n_systems, n_segments, seed=11)
        actual = corpus_rows(n_systems, n_segments, seed=11)
        for (name, _), want, got in zip(FILES, expected, actual):
            if want != got:
                problems.append(f"{n_systems}x{n_segments} {name} differs")
    return problems


if __name__ == "__main__":
    if sys.argv[1:] != ["--self-check"]:
        sys.exit("usage: python3 perfbench/corpus_gen.py --self-check")
    mismatches = self_check(Path(__file__).resolve().parent.parent)
    for line in mismatches:
        print(line, file=sys.stderr)
    print("self-check: " + ("FAILED" if mismatches else "ok (rows identical)"))
    sys.exit(1 if mismatches else 0)
