"""Peakedness analytics over greedy alignment paths.

CTC models tend to concentrate each emission on very few frames with
near-one confidence; these statistics quantify that. Durations are run
lengths of identical consecutive non-blank tokens on the greedy path (a
blank or token change ends the run). Emit probabilities are per-frame
argmax probabilities, averaged per frame.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .decode import greedy_decode
from .errors import writing
from .lattice import BLANK, DistributionLattice, Vocabulary

BLANK_TOKEN_TEXT = "<blank>"

CSV_HEADER = (
    "frames,blank_frames,nonblank_frames,emissions,"
    "mean_nonblank_duration,mean_blank_emit_prob,mean_nonblank_emit_prob"
)


@dataclass(frozen=True)
class PeakStats:
    """Duration and confidence statistics with the counts behind each mean.

    Empty conventions: with no non-blank frames the duration and non-blank
    emit probability are 0 with zero counts; with no blank frames the blank
    emit probability is 0 with a zero count.
    """

    mean_nonblank_duration: float
    mean_blank_emit_prob: float
    mean_nonblank_emit_prob: float
    num_emissions: int
    num_blank_frames: int
    num_nonblank_frames: int

    @property
    def num_frames(self) -> int:
        return self.num_blank_frames + self.num_nonblank_frames

    def csv_row(self) -> str:
        return (
            f"{self.num_frames},{self.num_blank_frames},"
            f"{self.num_nonblank_frames},{self.num_emissions},"
            f"{self.mean_nonblank_duration:.6f},"
            f"{self.mean_blank_emit_prob:.6f},"
            f"{self.mean_nonblank_emit_prob:.6f}"
        )

    @classmethod
    def merge(cls, parts: list["PeakStats"]) -> "PeakStats":
        """Pool statistics across utterances, weighting by the counts."""
        emissions = sum(p.num_emissions for p in parts)
        blanks = sum(p.num_blank_frames for p in parts)
        nonblanks = sum(p.num_nonblank_frames for p in parts)
        dur = nonblanks / emissions if emissions else 0.0
        bp = (
            sum(p.mean_blank_emit_prob * p.num_blank_frames for p in parts) / blanks
            if blanks
            else 0.0
        )
        nbp = (
            sum(p.mean_nonblank_emit_prob * p.num_nonblank_frames for p in parts)
            / nonblanks
            if nonblanks
            else 0.0
        )
        return cls(dur, bp, nbp, emissions, blanks, nonblanks)


def peak_stats(dist: DistributionLattice, vocab: Vocabulary) -> PeakStats:
    labels, alignment = greedy_decode(dist, vocab)
    path = np.array(alignment.path, dtype=np.int64)
    T = len(path)
    maxp = dist.probs[np.arange(T), path]
    blank_mask = path == BLANK

    num_blank = int(blank_mask.sum())
    num_nonblank = T - num_blank
    # each collapsed label is one non-blank run of the path: one emission
    emissions = len(labels)

    dur = num_nonblank / emissions if emissions else 0.0
    bp = float(maxp[blank_mask].mean()) if num_blank else 0.0
    nbp = float(maxp[~blank_mask].mean()) if num_nonblank else 0.0
    return PeakStats(dur, bp, nbp, emissions, num_blank, num_nonblank)


def emit_plot_data(
    dist: DistributionLattice, vocab: Vocabulary
) -> list[tuple[int, str, float, bool]]:
    """Per-frame greedy series: (frame, token text, probability, is_blank)
    with the blank rendered distinctly."""
    _, alignment = greedy_decode(dist, vocab)
    rows = []
    for t, idx in enumerate(alignment.path):
        is_blank = idx == BLANK
        text = BLANK_TOKEN_TEXT if is_blank else vocab.token_of(idx - 1)
        rows.append((t, text, float(dist.probs[t, idx]), is_blank))
    return rows


def write_plot_data(rows: list[tuple[int, str, float, bool]], fh: io.TextIOBase) -> None:
    fh.write("frame,token,probability,is_blank\n")
    for frame, token, prob, is_blank in rows:
        fh.write(f"{frame},{token},{prob:.6f},{int(is_blank)}\n")


def save_plot_data(dist: DistributionLattice, vocab: Vocabulary, path) -> None:
    with writing("plot data", path), open(path, "w", encoding="utf-8") as fh:
        write_plot_data(emit_plot_data(dist, vocab), fh)
