"""Simulated network cameras (substitute for the Logitech webcams of
Section 5.2).

A :class:`Camera` implements the ``checkPhoto`` and ``takePhoto``
prototypes of Table 1:

* ``checkPhoto(area) : (quality, delay)`` — returns the camera's expected
  photo quality and delay for the requested area, or *zero tuples* when
  the camera cannot see that area (a legitimate invocation result per
  Section 2.1: "0, 1 or several tuples");
* ``takePhoto(area, quality) : (photo)`` — synthesizes a deterministic
  pseudo-image blob stamped with the camera, area, quality and instant —
  queries only treat photos as opaque BLOBs, so content is irrelevant to
  the algebra, but the stamp lets tests assert exactly which photo was
  taken when.
"""

from __future__ import annotations

from repro.devices.determinism import stable_unit
from repro.devices.prototypes import CHECK_PHOTO, TAKE_PHOTO
from repro.model.services import Service

__all__ = ["Camera"]


class Camera:
    """A deterministic simulated camera watching one area.

    Parameters
    ----------
    reference:
        Service reference (e.g. ``"camera01"``).
    area:
        The area this camera covers.
    quality:
        Nominal photo quality (0–10 scale, as in query Q2's ``quality ≥ 5``).
    delay:
        Nominal shot delay in seconds.
    """

    def __init__(
        self,
        reference: str,
        area: str,
        quality: int = 7,
        delay: float = 0.5,
    ):
        self.reference = reference
        self.area = area
        self.quality = quality
        self.delay = delay
        self.shots: list[tuple[int, str, int]] = []  # (instant, area, quality)

    def check_photo(self, area: str, instant: int) -> list[tuple[int, float]]:
        """``checkPhoto``: quality/delay for ``area``, empty if unseen."""
        if area != self.area:
            return []
        # Lighting conditions wiggle the nominal quality by at most 1.
        wiggle = int(stable_unit(self.reference, "check", instant) * 3) - 1
        quality = max(0, min(10, self.quality + wiggle))
        delay = round(
            self.delay * (0.8 + 0.4 * stable_unit(self.reference, "delay", instant)),
            3,
        )
        return [(quality, delay)]

    def take_photo(self, area: str, quality: int, instant: int) -> list[tuple[bytes]]:
        """``takePhoto``: one pseudo-image blob, empty if the area is unseen."""
        if area != self.area:
            return []
        self.shots.append((instant, area, quality))
        stamp = f"photo|{self.reference}|{area}|q{quality}|t{instant}"
        return [(stamp.encode("ascii"),)]

    def as_service(self) -> Service:
        def check(inputs, instant):
            (area,) = inputs
            return self.check_photo(str(area), instant)

        def take(inputs, instant):
            area, quality = inputs
            return self.take_photo(str(area), int(quality), instant)

        return Service(
            self.reference,
            {CHECK_PHOTO: check, TAKE_PHOTO: take},
            description=f"camera watching {self.area}",
            properties={"area": self.area},
        )

    def __repr__(self) -> str:
        return f"Camera({self.reference!r} @ {self.area!r})"
