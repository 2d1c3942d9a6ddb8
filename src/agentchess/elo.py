"""Maximum-likelihood Elo estimation against fixed-rated opponents.

Opponent ratings are anchors, not variables: the estimate is the rating r
at which the observed total score equals its expectation under the standard
Elo logistic. That score difference is strictly decreasing in r, so the
root is unique whenever the outcomes include both wins and losses; all-win
or all-loss inputs clamp to a bracket end and are flagged rather than
errored. The standard error comes from the Fisher information at the
pre-offset root, and the configured first-move compensation (the subject
normally plays black) is added afterwards.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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

    def __post_init__(self):
        if not math.isfinite(self.opponent_rating):
            raise ValueError("opponent rating must be finite")
        if self.score not in VALID_SCORES:
            raise ValueError(f"score must be one of {VALID_SCORES}, got {self.score}")


@dataclass(frozen=True)
class EloEstimate:
    rating: float  # pre-offset root plus the white-advantage correction
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
    outcomes = list(outcomes)
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


def outcomes_from_records(records, skill_map=None) -> list:
    """Scoreable records against engine opponents, as rated outcomes.

    Wins map to 1, draws (the 100-move cap included) to 0.5, and losses of
    every flavor (chess, instruction, model error) to 0; records flagged
    excluded are skipped. Engine skill metadata is required to anchor the
    opponent's rating.
    """
    outcomes = []
    for record in records:
        if record.excluded:
            continue
        skill = opponent_skill(record)
        if skill is None:
            raise ValueError(
                "record lacks engine-skill metadata; Elo needs rated engine opponents"
            )
        if skill_map is not None:
            try:
                rating = skill_map[skill]
            except KeyError:
                raise ValueError(f"skill {skill} missing from the skill map") from None
        else:
            rating = default_skill_rating(skill)
        outcomes.append(MatchOutcome(opponent_rating=rating, score=record.score()))
    return outcomes


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
            outcomes.append(MatchOutcome(float(parts[0]), float(parts[1])))
    return outcomes


def write_outcomes_csv(path, outcomes) -> None:
    with open(path, "w") as handle:
        handle.write("opponent_rating,score\n")
        for outcome in outcomes:
            handle.write(f"{outcome.opponent_rating:g},{outcome.score:g}\n")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
