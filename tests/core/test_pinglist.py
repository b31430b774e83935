"""Tests for pinglist models and XML round-tripping."""

import gc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.controller.pinglist import (
    _PARSED_ENTRIES,
    VALID_PURPOSES,
    VALID_QOS,
    PingParameters,
    Pinglist,
    PinglistEntry,
    PinglistParseError,
)


def _pinglist(entries=None, **params):
    return Pinglist(
        server_id="dc0/ps0/pod0/srv0",
        generation=3,
        generated_at=123.5,
        parameters=PingParameters(**params),
        entries=entries
        or [
            PinglistEntry("dc0/ps0/pod0/srv1", "10.0.0.2", "intra-pod"),
            PinglistEntry("dc0/ps0/pod1/srv0", "10.0.0.9", "tor-level"),
            PinglistEntry("dc1/ps0/pod0/srv0", "11.0.0.1", "inter-dc", qos="low"),
            PinglistEntry(
                "dc0/ps1/pod4/srv0", "10.0.0.33", "tor-level", payload_bytes=1000
            ),
        ],
    )


class TestModels:
    def test_parameters_validation(self):
        with pytest.raises(ValueError):
            PingParameters(probe_interval_s=0)
        with pytest.raises(ValueError):
            PingParameters(payload_bytes=-1)
        with pytest.raises(ValueError):
            PingParameters(tcp_port_high=0)

    def test_port_for_qos(self):
        params = PingParameters(tcp_port_high=81, tcp_port_low=82)
        assert params.port_for("high") == 81
        assert params.port_for("low") == 82
        with pytest.raises(ValueError):
            params.port_for("mid")

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            PinglistEntry("x", "10.0.0.1", purpose="warp")
        with pytest.raises(ValueError):
            PinglistEntry("x", "10.0.0.1", qos="medium")
        with pytest.raises(ValueError):
            PinglistEntry("x", "10.0.0.1", payload_bytes=-5)

    def test_len_and_purpose_filter(self):
        pinglist = _pinglist()
        assert len(pinglist) == 4
        assert len(pinglist.peers_by_purpose("tor-level")) == 2
        assert len(pinglist.peers_by_purpose("vip")) == 0
        with pytest.raises(ValueError):
            pinglist.peers_by_purpose("nothing")


class TestXmlRoundTrip:
    def test_roundtrip_preserves_everything(self):
        original = _pinglist(probe_interval_s=30.0, payload_bytes=0)
        parsed = Pinglist.from_xml(original.to_xml())
        assert parsed.server_id == original.server_id
        assert parsed.generation == original.generation
        assert parsed.generated_at == original.generated_at
        assert parsed.parameters == original.parameters
        assert parsed.entries == original.entries

    def test_empty_pinglist_roundtrip(self):
        original = _pinglist(entries=[])
        original.entries = []
        parsed = Pinglist.from_xml(original.to_xml())
        assert parsed.entries == []

    def test_xml_is_standard_and_humanish(self):
        xml = _pinglist().to_xml()
        assert xml.startswith("<Pinglist")
        assert "<Peers>" in xml
        assert 'purpose="inter-dc"' in xml

    def test_malformed_xml_rejected(self):
        with pytest.raises(PinglistParseError):
            Pinglist.from_xml("<Pinglist><unclosed>")

    def test_wrong_root_rejected(self):
        with pytest.raises(PinglistParseError):
            Pinglist.from_xml("<NotAPinglist/>")

    def test_missing_parameters_rejected(self):
        with pytest.raises(PinglistParseError):
            Pinglist.from_xml(
                '<Pinglist server="s" generation="1" generatedAt="0.0"><Peers/></Pinglist>'
            )

    def test_bad_attribute_types_rejected(self):
        xml = _pinglist().to_xml().replace('generation="3"', 'generation="three"')
        with pytest.raises(PinglistParseError):
            Pinglist.from_xml(xml)

    @given(
        st.floats(min_value=1.0, max_value=3600.0, allow_nan=False),
        st.integers(min_value=0, max_value=65_536),
        st.integers(min_value=0, max_value=500),
    )
    def test_roundtrip_property(self, interval, payload, n_peers):
        entries = [
            PinglistEntry(f"srv{i}", f"10.0.{i // 256}.{i % 256 or 1}", "tor-level")
            for i in range(min(n_peers, 40))
        ]
        original = Pinglist(
            server_id="s",
            generation=1,
            generated_at=0.0,
            parameters=PingParameters(
                probe_interval_s=interval, payload_bytes=payload
            ),
            entries=entries,
        )
        parsed = Pinglist.from_xml(original.to_xml())
        assert parsed.parameters.probe_interval_s == interval
        assert len(parsed.entries) == len(entries)


class TestParserRobustness:
    @given(st.text(max_size=300))
    def test_arbitrary_text_never_crashes_the_parser(self, text):
        """Fuzz: any input either parses or raises PinglistParseError."""
        try:
            Pinglist.from_xml(text)
        except PinglistParseError:
            pass

    @given(st.text(alphabet="<>/ab \"'=", max_size=120))
    def test_tag_soup_never_crashes_the_parser(self, soup):
        try:
            Pinglist.from_xml("<Pinglist" + soup)
        except PinglistParseError:
            pass


# -- renderer byte parity --------------------------------------------------------


def _reference_to_xml(pinglist):
    """The pinglist file as ElementTree writes it: the renderer's oracle."""
    root = ET.Element(
        "Pinglist",
        {
            "server": pinglist.server_id,
            "generation": str(pinglist.generation),
            "generatedAt": repr(pinglist.generated_at),
        },
    )
    params = ET.SubElement(root, "Parameters")
    p = pinglist.parameters
    for tag, text in (
        ("ProbeIntervalSeconds", repr(p.probe_interval_s)),
        ("PayloadBytes", str(p.payload_bytes)),
        ("TimeoutSeconds", repr(p.timeout_s)),
        ("TcpPortHigh", str(p.tcp_port_high)),
        ("TcpPortLow", str(p.tcp_port_low)),
        ("VipServicePort", str(p.vip_service_port)),
    ):
        ET.SubElement(params, tag).text = text
    peers = ET.SubElement(root, "Peers")
    for entry in pinglist.entries:
        ET.SubElement(
            peers,
            "Peer",
            {
                "id": entry.peer_id,
                "ip": entry.peer_ip,
                "purpose": entry.purpose,
                "qos": entry.qos,
                "payloadBytes": str(entry.payload_bytes),
            },
        )
    return ET.tostring(root, encoding="unicode")


_names = st.text(
    alphabet=st.one_of(st.sampled_from("&<>\"'\r\n\t.é中"), st.characters()),
    max_size=12,
)
_floats = st.one_of(
    st.sampled_from([1e-07, 0.1 + 0.2, 60.0, 1e300]),
    st.floats(min_value=1e-12, max_value=1e12),
)
_entries = st.builds(
    PinglistEntry,
    peer_id=_names,
    peer_ip=_names,
    purpose=st.sampled_from(VALID_PURPOSES),
    qos=st.sampled_from(VALID_QOS),
    payload_bytes=st.integers(min_value=0, max_value=65_536),
)
_ports = st.integers(min_value=1, max_value=65_535)


class TestRendererParity:
    @given(
        server_id=_names,
        generation=st.integers(min_value=-(2**70), max_value=2**70),
        generated_at=st.one_of(_floats, st.floats()),
        parameters=st.builds(
            PingParameters,
            probe_interval_s=_floats,
            payload_bytes=st.integers(min_value=0, max_value=10**9),
            timeout_s=st.one_of(_floats, st.floats(allow_nan=False)),
            tcp_port_high=_ports,
            tcp_port_low=_ports,
            vip_service_port=_ports,
        ),
        entries=st.lists(_entries, max_size=8),
    )
    def test_template_matches_elementtree(
        self, server_id, generation, generated_at, parameters, entries
    ):
        pinglist = Pinglist(server_id, generation, generated_at, parameters, entries)
        assert pinglist.to_xml() == _reference_to_xml(pinglist)

    def test_empty_entry_list_renders_short_peers(self):
        pinglist = _pinglist(entries=[])
        pinglist.entries = []
        xml = pinglist.to_xml()
        assert "<Peers />" in xml
        assert xml == _reference_to_xml(pinglist)

    def test_special_characters_escaped_like_elementtree(self):
        pinglist = _pinglist(
            entries=[PinglistEntry('a&b<c>"d\'', "\r\n\t", "vip")]
        )
        pinglist.server_id = "srv&<>\"\n"
        xml = pinglist.to_xml()
        assert xml == _reference_to_xml(pinglist)
        assert 'id="a&amp;b&lt;c&gt;&quot;d\'"' in xml
        assert 'ip="&#13;&#10;&#09;"' in xml
        parsed = Pinglist.from_xml(xml)
        assert parsed.server_id == pinglist.server_id
        assert parsed.entries == pinglist.entries


# -- parsed-entry interning ------------------------------------------------------


def _xml_naming(peer_id, purpose="tor-level", payload="0"):
    return (
        '<Pinglist server="s" generation="1" generatedAt="0.0"><Parameters>'
        "<ProbeIntervalSeconds>60.0</ProbeIntervalSeconds>"
        "<PayloadBytes>0</PayloadBytes><TimeoutSeconds>9.0</TimeoutSeconds>"
        "<TcpPortHigh>81</TcpPortHigh><TcpPortLow>82</TcpPortLow>"
        "</Parameters><Peers>"
        f'<Peer id="{peer_id}" ip="10.9.9.9" purpose="{purpose}" qos="high" '
        f'payloadBytes="{payload}" />'
        "</Peers></Pinglist>"
    )


class TestParsedEntryInterning:
    def test_pinglists_naming_one_peer_share_its_entry(self):
        first = Pinglist.from_xml(_xml_naming("intern/shared"))
        second = Pinglist.from_xml(_xml_naming("intern/shared"))
        assert first.entries[0] is second.entries[0]
        other = Pinglist.from_xml(_xml_naming("intern/shared", payload="1000"))
        assert other.entries[0] is not first.entries[0]

    def test_table_holds_only_live_entries(self):
        def ours():
            return [key for key in _PARSED_ENTRIES.keys() if key[0].startswith("gc/")]

        gc.collect()
        assert ours() == []
        pinglists = [
            Pinglist.from_xml(_xml_naming(f"gc/{i % 3}")) for i in range(30)
        ]
        assert len(ours()) == 3
        del pinglists
        gc.collect()
        assert ours() == []

    @pytest.mark.parametrize(
        "purpose, payload",
        [("warp", "0"), ("tor-level", "x"), ("tor-level", "-5"), ("tor-level", "1.5")],
    )
    def test_interned_id_does_not_shortcut_validation(self, purpose, payload):
        valid = Pinglist.from_xml(_xml_naming("intern/validated"))
        with pytest.raises(PinglistParseError):
            Pinglist.from_xml(
                _xml_naming("intern/validated", purpose=purpose, payload=payload)
            )
        assert valid.entries[0].purpose == "tor-level"


class TestRequiredElements:
    def test_missing_peers_rejected(self):
        xml = _pinglist().to_xml()
        start, end = xml.index("<Peers>"), xml.index("</Peers>") + len("</Peers>")
        with pytest.raises(PinglistParseError, match="Peers"):
            Pinglist.from_xml(xml[:start] + xml[end:])

    def test_short_empty_peers_accepted(self):
        xml = _xml_naming("x")
        start, end = xml.index("<Peers>"), xml.index("</Peers>") + len("</Peers>")
        assert Pinglist.from_xml(xml[:start] + "<Peers />" + xml[end:]).entries == []
