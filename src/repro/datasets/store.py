"""Multi-resolution, multi-encoding storage of visual datasets.

Serving systems natively keep several renditions of each asset: full
resolution originals, fixed-size thumbnails, multiple video bitrates.  The
store encodes each source image once per configured rendition using the real
codecs, so decode cost and fidelity differences between renditions are
genuine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codecs.formats import InputFormatSpec
from repro.codecs.image import Image, ImageFormat
from repro.codecs.jpeg import JpegCodec, JpegEncoded
from repro.codecs.png import PngCodec, PngEncoded
from repro.codecs.roi import RegionOfInterest
from repro.errors import DatasetError, UnsupportedFormatError
from repro.preprocessing.ops import bilinear_resize


@dataclass
class StoredRendition:
    """One encoded rendition of one source image."""

    format_spec: InputFormatSpec
    encoded: JpegEncoded | PngEncoded
    source_id: str
    label: int | None

    @property
    def compressed_bytes(self) -> int:
        """Encoded size in bytes."""
        return self.encoded.compressed_bytes


class MultiResolutionStore:
    """Encodes and serves images in several natively-present renditions."""

    def __init__(self, formats: list[InputFormatSpec]) -> None:
        if not formats:
            raise DatasetError("the store needs at least one rendition format")
        self._formats = {spec.name: spec for spec in formats}
        self._codecs: dict[str, JpegCodec | PngCodec] = {}
        for spec in formats:
            if spec.codec is ImageFormat.JPEG:
                self._codecs[spec.name] = JpegCodec(quality=spec.quality)
            elif spec.codec is ImageFormat.PNG:
                self._codecs[spec.name] = PngCodec()
            else:
                raise UnsupportedFormatError(
                    "the image store supports JPEG and PNG renditions, "
                    f"not {spec.codec}"
                )
        self._renditions: dict[str, dict[str, StoredRendition]] = {}

    @property
    def formats(self) -> list[InputFormatSpec]:
        """The configured rendition formats."""
        return list(self._formats.values())

    def __len__(self) -> int:
        return len(self._renditions)

    def ingest(self, image: Image, source_id: str | None = None) -> str:
        """Encode ``image`` into every configured rendition; returns its id."""
        asset_id = source_id or image.source_id or f"asset-{len(self._renditions)}"
        if asset_id in self._renditions:
            raise DatasetError(f"asset {asset_id!r} already ingested")
        per_format: dict[str, StoredRendition] = {}
        for name, spec in self._formats.items():
            rendition_image = self._render(image, spec)
            encoded = self._codecs[name].encode(rendition_image)
            per_format[name] = StoredRendition(
                format_spec=spec,
                encoded=encoded,
                source_id=asset_id,
                label=image.label,
            )
        self._renditions[asset_id] = per_format
        return asset_id

    def asset_ids(self) -> list[str]:
        """All ingested asset identifiers."""
        return list(self._renditions)

    def rendition(self, asset_id: str, format_name: str) -> StoredRendition:
        """Fetch a specific rendition of an asset."""
        try:
            return self._renditions[asset_id][format_name]
        except KeyError as exc:
            raise DatasetError(
                f"no rendition {format_name!r} for asset {asset_id!r}"
            ) from exc

    def decode(self, asset_id: str, format_name: str,
               roi: RegionOfInterest | None = None) -> Image:
        """Decode a rendition, optionally restricted to ``roi``."""
        stored = self.rendition(asset_id, format_name)
        codec = self._codecs[format_name]
        if roi is None:
            decoded = codec.decode(stored.encoded)
        else:
            decoded = codec.decode_roi(stored.encoded, roi)
        decoded.label = stored.label
        decoded.source_id = asset_id
        return decoded

    def total_bytes(self, format_name: str) -> int:
        """Total compressed bytes stored for one rendition format."""
        if format_name not in self._formats:
            raise DatasetError(f"unknown rendition format {format_name!r}")
        return sum(
            per_format[format_name].compressed_bytes
            for per_format in self._renditions.values()
        )

    @staticmethod
    def _render(image: Image, spec: InputFormatSpec) -> Image:
        """Resize the source image to the rendition's stored resolution."""
        if spec.short_side >= image.resolution.short_side:
            return image
        target = image.resolution.scaled_to_short_side(spec.short_side)
        resized = bilinear_resize(image.pixels, target.height, target.width)
        return Image(pixels=resized, label=image.label, source_id=image.source_id)
