"""Browser/OS metadata and User-Agent synthesis.

The UA comparator vector (paper Table 3) needs a realistic *diversity
model*, not real header strings: what matters is the joint distribution
of (OS, OS build, browser, browser version) and its correlation with the
platform stack — the sampler draws the build/version axes conditionally
on the (os, browser) marginal the audio stack pool already fixed, so UA
identity is correlated with (but strictly finer than) audio identity,
exactly the structure the additive-value analysis measures.

Version pools are head-heavy (auto-update concentrates mass on the
current release train) with a long tail of stragglers; OS build pools
model the slower OS upgrade cadence. ``pick_weighted`` defines a draw:
one ``rng.random()`` against a cumulative table, deterministic given the
caller's per-user stream. Each table's cumulative distribution is
computed once per process, not once per pick; the population sampler
makes the same picks for a whole slice of users at once, with
``searchsorted`` on the same distribution.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=256)
def _cumulative(table: tuple) -> tuple[tuple, tuple[float, ...]]:
    """A table's values and cumulative distribution, computed once per
    distinct table content (tables are compared by value, never by id)."""
    weights = np.array([w for _, w in table], dtype=np.float64)
    cdf = np.cumsum(weights / weights.sum())
    return tuple(value for value, _ in table), tuple(cdf.tolist())


def pick_weighted(rng: np.random.Generator, table) -> str:
    """One weighted draw from ``[(value, weight), ...]`` — a single
    ``rng.random()`` against the table's cumulative distribution, so the
    caller's stream advances by exactly one draw per pick. ``bisect_right``
    is ``np.searchsorted(cdf, u, side="right")`` on a list: the same
    binary search, without the array call."""
    values, cdf = _cumulative(tuple(table))
    return values[min(bisect_right(cdf, rng.random()), len(values) - 1)]


#: browser release trains, head-first (value, weight)
BROWSER_VERSIONS: dict[str, list[tuple[str, float]]] = {
    "Chrome": [
        ("104.0.5112.102", 24.0), ("104.0.5112.81", 14.0),
        ("103.0.5060.134", 12.0), ("103.0.5060.114", 8.0),
        ("102.0.5005.115", 7.0), ("102.0.5005.63", 4.0),
        ("101.0.4951.67", 3.5), ("100.0.4896.127", 2.5),
        ("99.0.4844.84", 1.5), ("98.0.4758.102", 1.0),
        ("96.0.4664.110", 0.8), ("94.0.4606.81", 0.5),
    ],
    "Edge": [
        ("104.0.1293.63", 22.0), ("104.0.1293.47", 12.0),
        ("103.0.1264.77", 10.0), ("103.0.1264.62", 6.0),
        ("102.0.1245.44", 4.0), ("101.0.1210.53", 2.0),
        ("100.0.1185.50", 1.0), ("98.0.1108.62", 0.5),
    ],
    "Firefox": [
        ("103.0", 22.0), ("103.0.2", 10.0), ("102.0", 9.0),
        ("102.0.1", 6.0), ("101.0.1", 4.0), ("100.0.2", 2.5),
        ("99.0.1", 1.5), ("91.13.0", 1.2), ("78.15.0", 0.4),
    ],
    "Safari": [
        ("15.6", 20.0), ("15.5", 10.0), ("15.4", 6.0), ("15.3", 3.0),
        ("14.1.2", 2.5), ("13.1.2", 1.0),
    ],
}

#: OS build/device strings per OS family, head-first (value, weight)
OS_BUILDS: dict[str, list[tuple[str, float]]] = {
    "Windows": [
        ("Windows NT 10.0; Win64; x64", 46.0),
        ("Windows NT 10.0; WOW64", 6.0),
        ("Windows NT 10.0; Win64; x64; 22H2", 12.0),
        ("Windows NT 10.0; Win64; x64; 21H2", 8.0),
        ("Windows NT 6.3; Win64; x64", 2.0),
        ("Windows NT 6.1; Win64; x64", 1.5),
    ],
    "macOS": [
        ("Macintosh; Intel Mac OS X 10_15_7", 16.0),
        ("Macintosh; Intel Mac OS X 12_5", 10.0),
        ("Macintosh; Intel Mac OS X 12_4", 6.0),
        ("Macintosh; Intel Mac OS X 11_6_8", 4.0),
        ("Macintosh; Intel Mac OS X 12_5_1", 3.0),
        ("Macintosh; Intel Mac OS X 10_14_6", 1.5),
        ("Macintosh; Intel Mac OS X 10_13_6", 0.6),
    ],
    "Android": [
        ("Linux; Android 12; Pixel 6", 8.0),
        ("Linux; Android 12; SM-G991B", 7.0),
        ("Linux; Android 11; SM-A515F", 6.0),
        ("Linux; Android 11; Pixel 4a", 4.0),
        ("Linux; Android 12; SM-S908B", 3.5),
        ("Linux; Android 10; SM-G973F", 3.0),
        ("Linux; Android 11; M2101K6G", 2.0),
        ("Linux; Android 9; SM-J530F", 1.0),
    ],
    "Linux": [
        ("X11; Linux x86_64", 14.0),
        ("X11; Ubuntu; Linux x86_64", 8.0),
        ("X11; Fedora; Linux x86_64", 3.0),
        ("X11; Linux i686", 0.6),
    ],
}


@dataclass(frozen=True)
class UAStack:
    """The frozen UA identity of one device (comparator-vector stack)."""

    os: str
    os_build: str
    browser: str
    browser_version: str

    def cache_key(self) -> str:
        return "|".join(("ua", self.os, self.os_build, self.browser,
                         self.browser_version))

    def ua_string(self) -> str:
        """Synthesize the header string this identity would send."""
        if self.browser == "Firefox":
            major = self.browser_version.split(".")[0]
            return (f"Mozilla/5.0 ({self.os_build}; rv:{major}.0) "
                    f"Gecko/20100101 Firefox/{self.browser_version}")
        if self.browser == "Safari":
            return (f"Mozilla/5.0 ({self.os_build}) AppleWebKit/605.1.15 "
                    f"(KHTML, like Gecko) Version/{self.browser_version} "
                    f"Safari/605.1.15")
        tail = (f"AppleWebKit/537.36 (KHTML, like Gecko) "
                f"Chrome/{self.browser_version} Safari/537.36")
        if self.browser == "Edge":
            major = self.browser_version.split(".")[0]
            return (f"Mozilla/5.0 ({self.os_build}) {tail} "
                    f"Edg/{self.browser_version}"
                    .replace(f"Chrome/{self.browser_version}",
                             f"Chrome/{major}.0.0.0"))
        mobile = " Mobile" if self.os == "Android" else ""
        return (f"Mozilla/5.0 ({self.os_build}) "
                f"AppleWebKit/537.36 (KHTML, like Gecko) "
                f"Chrome/{self.browser_version}{mobile} Safari/537.36")


def sample_ua(rng: np.random.Generator, os_name: str,
              browser: str) -> UAStack:
    """Draw a UA identity conditional on the device's (os, browser).

    Exactly two weighted draws (build, then version) from the caller's
    per-user stream, in fixed order."""
    build = pick_weighted(rng, OS_BUILDS[os_name])
    version = pick_weighted(rng, BROWSER_VERSIONS[browser])
    return UAStack(os=os_name, os_build=build, browser=browser,
                   browser_version=version)
