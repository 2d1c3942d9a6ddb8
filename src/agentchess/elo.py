"""Maximum-likelihood Elo estimation against fixed-rated opponents.

Opponent ratings are anchors, not variables: the estimate is the rating r
at which the observed total score equals its expectation under the standard
Elo logistic. That score difference is strictly decreasing in r, so the
root is unique whenever the outcomes include both wins and losses; all-win
or all-loss inputs clamp to a bracket end and are flagged rather than
errored. The root is the subject's rating as black: a game the subject
played as white enters the solve against its anchor lowered by twice the
first-move compensation. The standard error comes from the Fisher
information at that root, and the compensation is added afterwards.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

_SCALE = math.log(10.0) / 400.0
_BRACKET_MARGIN = 400.0

DEFAULT_WHITE_ADVANTAGE = 35.0

BOUNDARY_NONE = "none"
BOUNDARY_LOW = "clamped_low"
BOUNDARY_HIGH = "clamped_high"

VALID_SCORES = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class MatchOutcome:
    opponent_rating: float
    score: float
    subject_color: str = "b"  # the colour the rated side played

    def __post_init__(self):
        if not math.isfinite(self.opponent_rating):
            raise ValueError("opponent rating must be finite")
        if self.score not in VALID_SCORES:
            raise ValueError(f"score must be one of {VALID_SCORES}, got {self.score}")
        if self.subject_color not in ("w", "b"):
            raise ValueError(f"subject colour must be 'w' or 'b', got {self.subject_color!r}")


@dataclass(frozen=True)
class EloEstimate:
    rating: float  # the root (rating as black) plus the white-advantage correction
    standard_error: float
    ci_half_width: float  # 1.96 * standard_error
    white_advantage: float
    boundary: str  # none | clamped_low | clamped_high

    @property
    def ci95(self) -> tuple:
        return (self.rating - self.ci_half_width, self.rating + self.ci_half_width)


def expected_score(rating: float, opponent_rating: float) -> float:
    """Elo expectation for `rating` against one fixed opponent."""
    return 1.0 / (1.0 + 10.0 ** ((opponent_rating - rating) / 400.0))


def score_diff(rating: float, outcomes) -> float:
    """Observed minus expected total score; strictly decreasing in rating."""
    return sum(o.score - expected_score(rating, o.opponent_rating) for o in outcomes)


def fisher_information(rating: float, outcomes) -> float:
    total = sum(
        (e := expected_score(rating, o.opponent_rating)) * (1.0 - e) for o in outcomes
    )
    return total * _SCALE * _SCALE


def estimate_elo(outcomes, white_advantage: float = DEFAULT_WHITE_ADVANTAGE,
                 tolerance: float = 1e-4) -> EloEstimate:
    """Solve for the maximum-likelihood rating with a 95% confidence interval.

    Bisection on the score difference over [min rating - 400, max + 400],
    to `tolerance` Elo. Without a sign change on that bracket (all wins or
    all losses) the estimate clamps to the bracket end and is flagged.
    """
    outcomes = [
        replace(o, opponent_rating=o.opponent_rating - 2.0 * white_advantage, subject_color="b")
        if o.subject_color == "w" else o
        for o in outcomes
    ]
    if not outcomes:
        raise ValueError("need at least one outcome")
    low = min(o.opponent_rating for o in outcomes) - _BRACKET_MARGIN
    high = max(o.opponent_rating for o in outcomes) + _BRACKET_MARGIN
    boundary = BOUNDARY_NONE
    diff_low = score_diff(low, outcomes)
    diff_high = score_diff(high, outcomes)
    if diff_low <= 0.0:
        root = low
        if diff_low < 0.0:
            boundary = BOUNDARY_LOW
    elif diff_high >= 0.0:
        root = high
        if diff_high > 0.0:
            boundary = BOUNDARY_HIGH
    else:
        while high - low > tolerance:
            mid = (low + high) / 2.0
            if score_diff(mid, outcomes) > 0.0:
                low = mid
            else:
                high = mid
        root = (low + high) / 2.0
    information = fisher_information(root, outcomes)
    standard_error = 1.0 / math.sqrt(information)
    return EloEstimate(
        rating=root + white_advantage,
        standard_error=standard_error,
        ci_half_width=1.96 * standard_error,
        white_advantage=white_advantage,
        boundary=boundary,
    )


# ---------------------------------------------------------------------------
# Mapping game records and CSV files to outcomes.


def default_skill_rating(skill: int) -> float:
    """Anchor rating for an engine skill level: 250 at skill 1, +125 each."""
    return 250.0 + 125.0 * (skill - 1)


def build_skill_map(levels, ratings=None) -> dict:
    """Skill -> anchor map, defaulting to the 250 + 125*(skill-1) table."""
    mapping = {level: default_skill_rating(level) for level in levels}
    if ratings:
        mapping.update(ratings)
    values = [mapping[level] for level in sorted(mapping)]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("skill ratings must be strictly increasing")
    return mapping


def opponent_skill(record):
    """Skill level of the subject's engine opponent; None for other opponents."""
    opponent = record.config["white" if record.subject_color == "b" else "black"]
    return opponent.get("skill") if opponent.get("kind") == "engine" else None


def outcomes_from_records(records, anchors=None) -> list:
    """Scoreable records against engine opponents, as rated outcomes.

    Wins map to 1, draws (the 100-move cap included) to 0.5, and losses of
    every flavor (chess, instruction, model error) to 0; records flagged
    excluded are skipped. Engine skill metadata is required to anchor the
    opponent's rating: the default table, with `anchors` (skill -> rating)
    overriding it, and strictly increasing over every skill either names.
    """
    scored = [r for r in records if not r.excluded]
    skills = [opponent_skill(r) for r in scored]
    if None in skills:
        raise ValueError("record lacks engine-skill metadata; Elo needs rated engine opponents")
    ratings = build_skill_map(set(skills) | set(anchors or ()), anchors)
    return [MatchOutcome(ratings[s], r.score(), r.subject_color) for r, s in zip(scored, skills)]


def read_outcomes_csv(path) -> list:
    """Parse "opponent_rating,score" lines; a header row is allowed."""
    outcomes = []
    with open(path) as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ValueError(f"{path}:{number}: expected two comma-separated fields")
            if number == 1 and not _is_number(parts[0]):
                continue  # header
            try:
                outcomes.append(MatchOutcome(float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
    return outcomes


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
