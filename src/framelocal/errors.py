"""Exception types raised across the package.

Plain I/O failures are left as the built-in OSError/IOError; everything
domain-specific derives from FrameLocalError so callers can catch one base.
"""


class FrameLocalError(Exception):
    """Base class for all errors raised by this package."""


# -- geodesy ---------------------------------------------------------------

class CoincidentPoints(FrameLocalError):
    """Two points coincide, so the azimuth between them is undefined."""


class NearAntipodal(FrameLocalError):
    """The geodesic solver did not converge (nearly antipodal endpoints)."""


class PolarOrigin(FrameLocalError):
    """Projection origin too close to a pole for the oblique Mercator."""


class OutOfDomain(FrameLocalError):
    """Point outside the usable domain of the projection."""


# -- ingest ----------------------------------------------------------------

class IngestError(FrameLocalError):
    """Base class for input parsing and loading failures."""


class MalformedInterval(IngestError):
    """Text is not a supported start/end ISO 8601 interval."""


class ReversedInterval(IngestError):
    """Interval end precedes its begin."""


class NotFeatureCollection(IngestError):
    """Frames input is not a GeoJSON FeatureCollection."""


class BadLineString(IngestError):
    """Frame geometry is a LineString without exactly two positions."""


class NoEvents(IngestError):
    """A frame feature carries no parsable event interval."""


class MalformedXml(IngestError):
    """Trace file does not decode, is not well-formed XML, or has a
    document type declaration."""


class NoTimedPoints(IngestError):
    """A GPX file has no track point with a usable time and position."""


class FramesFileUnreadable(IngestError):
    """The frames file cannot be read."""


class NoTraces(IngestError):
    """No .gpx files were found in the traces directory."""


# -- output ----------------------------------------------------------------

class NoSeries(FrameLocalError):
    """An overlay plot was requested for an empty list of series."""
