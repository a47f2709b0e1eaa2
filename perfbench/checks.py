"""Output checks applied to every `mine` run the benchmark makes.

A run passes only if every check here finds nothing; each problem found is
returned as one message, and the caller counts the run as failed.
"""

from __future__ import annotations

import json
from pathlib import Path

OUTPUT_FILES = ("cases.tsv", "altlexes.tsv", "altlexes.json")


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    """The three output files' bytes; a missing file reads as empty."""
    outputs = {}
    for name in OUTPUT_FILES:
        path = out_dir / name
        outputs[name] = path.read_bytes() if path.is_file() else b""
    return outputs


def clear_outputs(out_dir: Path) -> None:
    """Remove earlier outputs so a run that writes nothing cannot pass."""
    for name in OUTPUT_FILES:
        (out_dir / name).unlink(missing_ok=True)


def cases_total(outputs: dict[str, bytes]) -> int | None:
    """The Total count from cases.tsv, or None if it cannot be read."""
    for line in outputs["cases.tsv"].decode("utf-8", "replace").splitlines():
        fields = line.split("\t")
        if fields[0] == "Total" and len(fields) == 3 and fields[1].isdigit():
            return int(fields[1])
    return None


def _hundredths(text: str) -> int:
    whole, _, frac = text.partition(".")
    if not (whole.isdigit() and len(frac) == 2 and frac.isdigit()):
        raise ValueError(f"percent {text!r} is not written with two decimals")
    return int(whole) * 100 + int(frac)


def check_outputs(
    outputs: dict[str, bytes],
    input_pairs: int | None,
    expected: dict,
    reference: dict[str, bytes] | None = None,
) -> list[str]:
    """Check one run's outputs.

    - cases.tsv: the Total equals ``input_pairs`` and the case counts; the
      percentages sum to 100.00 (0.00 for an empty input), both as written
      in the Total row and as the sum of the case rows;
    - altlexes.json agrees with cases.tsv on the total;
    - ``expected["cases"]``: exact count per case, others zero;
    - ``expected["altlexes"]``: exactly these (text, sense) rows in
      altlexes.tsv, with these accepted-occurrence counts;
    - ``reference``: all three files byte-identical to it.
    """
    problems: list[str] = []
    try:
        rows = [line.split("\t") for line in outputs["cases.tsv"].decode("utf-8").splitlines()]
        if rows[0] != ["case", "count", "percent"] or rows[-1][0] != "Total":
            return [f"cases.tsv: unexpected layout {rows[:1]}...{rows[-1:]}"]
        body, total_row = rows[1:-1], rows[-1]
        counts = {r[0]: int(r[1]) for r in body}
        total = int(total_row[1])
        pct_sum = sum(_hundredths(r[2]) for r in body)
        pct_total = _hundredths(total_row[2])
        payload = json.loads(outputs["altlexes.json"].decode("utf-8"))
        tsv_rows = [line.split("\t") for line in outputs["altlexes.tsv"].decode("utf-8").splitlines()[1:]]
        altlexes = {(r[0], r[1]): int(r[3]) for r in tsv_rows}
    except (IndexError, ValueError, UnicodeDecodeError) as exc:
        return [f"unreadable outputs: {exc}"]

    if input_pairs is not None and total != input_pairs:
        problems.append(f"cases.tsv Total {total} != {input_pairs} input pairs")
    if sum(counts.values()) != total:
        problems.append(f"case counts sum to {sum(counts.values())}, Total says {total}")
    want_pct = 10000 if total else 0
    if pct_sum != want_pct or pct_total != want_pct:
        problems.append(f"percentages sum to {pct_sum / 100:.2f} (Total row {pct_total / 100:.2f})")
    if payload.get("total_pairs") != total:
        problems.append(f"altlexes.json total_pairs {payload.get('total_pairs')} != {total}")
    if "cases" in expected:
        want = {kind: expected["cases"].get(kind, 0) for kind in counts}
        if counts != want:
            problems.append(f"case counts {counts} != expected {want}")
    if "altlexes" in expected and altlexes != expected["altlexes"]:
        missing = sorted(set(expected["altlexes"]) - set(altlexes))
        extra = sorted(set(altlexes) - set(expected["altlexes"]))
        wrong = sorted(k for k in set(altlexes) & set(expected["altlexes"]) if altlexes[k] != expected["altlexes"][k])
        problems.append(
            f"altlexes differ: {len(missing)} missing {missing[:3]}, {len(extra)} unexpected {extra[:3]}, "
            f"{len(wrong)} with wrong counts {wrong[:3]}"
        )
    if reference is not None:
        for name in OUTPUT_FILES:
            if outputs[name] != reference[name]:
                problems.append(f"{name} differs from the reference output")
    return problems
