"""Pinglist files: the controller↔agent contract (§3.3, §6.2).

"Pingmesh Controller and Pingmesh Agent interact only through the pinglist
files, which are standard XML files, via standard Web API."  That loose
coupling is credited for Pingmesh's easy evolution, so we keep it literal:
pinglists serialize to and parse from XML, and the agent never sees
controller internals.

A pinglist carries the peers one server must probe, each tagged with the
level of the complete-graph design it came from (intra-pod, ToR-level,
inter-DC, or VIP monitoring) and a QoS class, plus the ping parameters
(probe interval, payload size, destination ports per class).
"""

from __future__ import annotations

import weakref
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

__all__ = ["PingParameters", "PinglistEntry", "Pinglist", "PinglistParseError"]

# Purposes, one per complete-graph level (§3.3.1) plus VIP monitoring (§6.2).
VALID_PURPOSES = ("intra-pod", "tor-level", "inter-dc", "vip")
# QoS classes introduced for DSCP-differentiated probing (§6.2).
VALID_QOS = ("high", "low")


class PinglistParseError(Exception):
    """The XML was not a well-formed pinglist."""


@dataclass(frozen=True)
class PingParameters:
    """How the agent should probe (controller-chosen, §3.3.1).

    ``probe_interval_s`` must respect the agent's hard-coded 10 s minimum;
    the agent clamps regardless (defense in depth, §3.4.2).
    """

    probe_interval_s: float = 60.0
    payload_bytes: int = 0
    timeout_s: float = 9.0
    tcp_port_high: int = 81
    tcp_port_low: int = 82
    # §6.2: a VIP is probed on its service port, not the mesh probe ports —
    # the point is reachability of the *service* behind the SLB.
    vip_service_port: int = 80

    def __post_init__(self) -> None:
        if self.probe_interval_s <= 0:
            raise ValueError(f"probe interval must be positive: {self.probe_interval_s}")
        if self.payload_bytes < 0:
            raise ValueError(f"payload must be >= 0: {self.payload_bytes}")
        for port in (self.tcp_port_high, self.tcp_port_low, self.vip_service_port):
            if not 0 < port <= 65_535:
                raise ValueError(f"port out of range: {port}")

    def port_for(self, qos: str, purpose: str = "tor-level") -> int:
        if purpose == "vip":
            return self.vip_service_port
        if qos == "high":
            return self.tcp_port_high
        if qos == "low":
            return self.tcp_port_low
        raise ValueError(f"unknown qos class: {qos!r}")


@dataclass(frozen=True)
class PinglistEntry:
    """One peer to probe."""

    peer_id: str
    peer_ip: str
    purpose: str = "tor-level"
    qos: str = "high"
    payload_bytes: int = 0

    def __post_init__(self) -> None:
        if self.purpose not in VALID_PURPOSES:
            raise ValueError(f"unknown purpose: {self.purpose!r}")
        if self.qos not in VALID_QOS:
            raise ValueError(f"unknown qos: {self.qos!r}")
        if self.payload_bytes < 0:
            raise ValueError(f"payload must be >= 0: {self.payload_bytes}")


@dataclass
class Pinglist:
    """A full pinglist for one server."""

    server_id: str
    generation: int
    generated_at: float
    parameters: PingParameters = field(default_factory=PingParameters)
    entries: list[PinglistEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def peers_by_purpose(self, purpose: str) -> list[PinglistEntry]:
        if purpose not in VALID_PURPOSES:
            raise ValueError(f"unknown purpose: {purpose!r}")
        return [entry for entry in self.entries if entry.purpose == purpose]

    # -- XML serialization ---------------------------------------------------

    def to_xml(self) -> str:
        """Render the pinglist file, byte for byte what ElementTree writes."""
        params = self.parameters
        attr, text = _escape_attrib, _escape_text
        peers = "".join(
            [
                f'<Peer id="{attr(entry.peer_id)}" ip="{attr(entry.peer_ip)}" '
                f'purpose="{entry.purpose}" qos="{entry.qos}" '
                f'payloadBytes="{entry.payload_bytes}" />'
                for entry in self.entries
            ]
        )
        return (
            f'<Pinglist server="{attr(self.server_id)}" '
            f'generation="{attr(str(self.generation))}" '
            f'generatedAt="{attr(repr(self.generated_at))}">'
            "<Parameters>"
            f"<ProbeIntervalSeconds>{text(repr(params.probe_interval_s))}"
            "</ProbeIntervalSeconds>"
            f"<PayloadBytes>{text(str(params.payload_bytes))}</PayloadBytes>"
            f"<TimeoutSeconds>{text(repr(params.timeout_s))}</TimeoutSeconds>"
            f"<TcpPortHigh>{text(str(params.tcp_port_high))}</TcpPortHigh>"
            f"<TcpPortLow>{text(str(params.tcp_port_low))}</TcpPortLow>"
            f"<VipServicePort>{text(str(params.vip_service_port))}</VipServicePort>"
            "</Parameters>"
            + (f"<Peers>{peers}</Peers>" if peers else "<Peers />")
            + "</Pinglist>"
        )

    @classmethod
    def from_xml(cls, text: str) -> "Pinglist":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise PinglistParseError(f"malformed XML: {exc}") from exc
        if root.tag != "Pinglist":
            raise PinglistParseError(f"unexpected root element: {root.tag!r}")
        try:
            params_el = root.find("Parameters")
            if params_el is None:
                raise PinglistParseError("missing Parameters element")
            peers_el = root.find("Peers")
            if peers_el is None:
                raise PinglistParseError("missing Peers element")
            parameters = PingParameters(
                probe_interval_s=float(params_el.findtext("ProbeIntervalSeconds")),
                payload_bytes=int(params_el.findtext("PayloadBytes")),
                timeout_s=float(params_el.findtext("TimeoutSeconds")),
                tcp_port_high=int(params_el.findtext("TcpPortHigh")),
                tcp_port_low=int(params_el.findtext("TcpPortLow")),
                # Absent in pinglists from older controllers: keep the default.
                vip_service_port=int(params_el.findtext("VipServicePort") or 80),
            )
            entries = [_parse_entry(peer.attrib) for peer in peers_el]
            return cls(
                server_id=root.attrib["server"],
                generation=int(root.attrib["generation"]),
                generated_at=float(root.attrib["generatedAt"]),
                parameters=parameters,
                entries=entries,
            )
        except PinglistParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise PinglistParseError(f"invalid pinglist content: {exc}") from exc


# ElementTree's escaping, with its cheap membership tests up front: almost
# no value has anything to escape.  Attribute values also encode the quote
# and whitespace control characters; element text only the markup ones.
_ATTR_ESCAPES = str.maketrans(
    {
        "&": "&amp;",
        "<": "&lt;",
        ">": "&gt;",
        '"': "&quot;",
        "\r": "&#13;",
        "\n": "&#10;",
        "\t": "&#09;",
    }
)
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _escape_attrib(value: str) -> str:
    if (
        "&" in value
        or "<" in value
        or ">" in value
        or '"' in value
        or "\r" in value
        or "\n" in value
        or "\t" in value
    ):
        return value.translate(_ATTR_ESCAPES)
    return value


def _escape_text(value: str) -> str:
    if "&" in value or "<" in value or ">" in value:
        return value.translate(_TEXT_ESCAPES)
    return value


# Parsed entries, interned on their raw <Peer> attributes.  A fleet's
# pinglists name each peer many times over; every agent parsing the same
# attributes shares one validated entry.  Weak values keep only entries a
# live pinglist still references, so the table needs no cap.
_PARSED_ENTRIES: "weakref.WeakValueDictionary[tuple, PinglistEntry]" = (
    weakref.WeakValueDictionary()
)


def _parse_entry(attrib: dict) -> PinglistEntry:
    key = (
        attrib["id"],
        attrib["ip"],
        attrib["purpose"],
        attrib["qos"],
        attrib.get("payloadBytes", "0"),
    )
    entry = _PARSED_ENTRIES.get(key)
    if entry is None:
        peer_id, peer_ip, purpose, qos, payload = key
        entry = PinglistEntry(peer_id, peer_ip, purpose, qos, int(payload))
        _PARSED_ENTRIES[key] = entry
    return entry
