"""Sensor-to-server acquisition chain simulation.

Implements the digital microphone side (2nd-order delta-sigma PDM at
3.072 MHz), the server-side four-stage decimation to 32-bit PCM at 48 kHz
(CIC -> half-band FIR -> half-band FIR -> droop-compensation FIR), and the
UDP-style packet framing with resequencing and gap reporting.

The delta-sigma loop has two forms with the same IEEE arithmetic and the
same bits: a lone channel runs the float loop on Python floats
(`_delta_sigma`), and the C channels of an FPGA run the in-place lockstep
loop over (C,) buffers (`pdm_modulate_channels`).

PDM bits have one form from modulation to decimation: a bool array, True
meaning +1, of shape (n,) for one channel and (C, n), C-contiguous, for the
C channels of an FPGA. Only a packet's payload is packed, and the decimator
packs the bits it reads into 16-bit words: its CIC is a sum of table
lookups of those words, for all C channels at once.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ProtocolError

PDM_RATE = 3_072_000
PCM_RATE = 48_000
DECIMATION = PDM_RATE // PCM_RATE  # 64

CIC_R = 16
CIC_ORDER = 5
HB1_TAPS = 31
HB2_TAPS = 67
COMP_TAPS = 31

CHANNELS_PER_FPGA = 200
DECIMATE_BLOCK_ROWS = 25  # rows of a (C, n) plane decimated at once
DEFAULT_FRAMES_PER_PACKET = 512
PACKET_MAGIC = b"SIAM"
# magic, fpga_id, sequence, sample_timestamp, status_flags, channels, frames
PACKET_HEADER = struct.Struct("<4sHIQHHH")

PCM_FULL_SCALE_CODE = 2**31 - 1


@dataclass
class DaqPacket:
    fpga_id: int
    sequence: int
    sample_timestamp: int  # PDM ticks of the first frame in this packet
    payload: bytes  # channel-major packed bits
    channels: int = CHANNELS_PER_FPGA
    frames: int = DEFAULT_FRAMES_PER_PACKET
    status_flags: int = 0

    def pack(self) -> bytes:
        header = PACKET_HEADER.pack(
            PACKET_MAGIC,
            self.fpga_id,
            self.sequence,
            self.sample_timestamp,
            self.status_flags,
            self.channels,
            self.frames,
        )
        return header + self.payload

    @classmethod
    def unpack(cls, buf: bytes) -> "DaqPacket":
        if len(buf) < PACKET_HEADER.size:
            raise ProtocolError(f"packet of {len(buf)} bytes is shorter than its {PACKET_HEADER.size}-byte header")
        magic, fpga_id, seq, ts, status, channels, frames = PACKET_HEADER.unpack_from(buf)
        if magic != PACKET_MAGIC:
            raise ProtocolError(f"bad packet magic {magic!r}")
        payload = buf[PACKET_HEADER.size :]
        if len(payload) != channels * ((frames + 7) // 8):
            raise ProtocolError(f"{len(payload)}-byte payload does not hold {channels} channels x {frames} frames")
        return cls(
            fpga_id=fpga_id,
            sequence=seq,
            sample_timestamp=ts,
            payload=payload,
            channels=channels,
            frames=frames,
            status_flags=status,
        )


@dataclass
class GapRecord:
    """Missing packet range, in sequence numbers and PDM sample indices."""

    fpga_id: int
    first_sequence: int
    last_sequence: int
    start_sample: int
    end_sample: int  # exclusive


def _delta_sigma(ticks) -> list[bool]:
    """One channel's 2nd-order delta-sigma decisions over `ticks`, from the start of a stream.

    A CIFB loop (feedback coefficients 1 and 2) with a single-bit quantizer,
    written with plain operators on Python floats, the same IEEE binary64
    arithmetic as the float64 samples and far cheaper per tick than any numpy
    call for a lone channel. Returns one bool decision per tick, True meaning
    +1. The C channels of an FPGA go through the in-place lockstep form of
    the same loop, `pdm_modulate_channels`, which gives the same bits.
    """
    s1, s2, y = 0.0, 0.0, 1.0
    decisions = []
    append = decisions.append
    for xi in ticks:
        s1 = s1 + (xi - y)
        s2 = s2 + (s1 - 2.0 * y)
        d = s2 >= 0.0
        y = d * 2.0 - 1.0
        append(d)
    return decisions


def _clip_block(x: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Clip a (B, C) block of ticks `start`.. to full scale.

    Returns the block, clipped where |x| > 1, and the (C,) flags of the
    channels clipped. A NaN sample has no PDM code (the loop would read it as
    full negative scale from then on), so it raises ValueError naming its
    channel and tick; +-inf clips as any other sample beyond full scale.
    """
    # a NaN propagates through max and min, so it flags its column too; the initial values admit an empty block
    over = ~((x.max(axis=0, initial=1.0) <= 1.0) & (x.min(axis=0, initial=-1.0) >= -1.0))
    if over.any():
        nan = np.argwhere(np.isnan(x))
        if len(nan):
            tick, channel = nan[0]
            raise ValueError(f"NaN sample in channel {channel} at tick {start + tick}")
        x = np.clip(x, -1.0, 1.0)
    return x, over


def pdm_modulate(waveform: np.ndarray) -> tuple[np.ndarray, bool]:
    """Encode a 3.072 MHz-sampled waveform as a 1-bit PDM stream.

    A 2nd-order delta-sigma loop with a single-bit quantizer. Inputs beyond
    full scale (|x| > 1) are clipped and flagged; a NaN input raises
    ValueError (`_clip_block`). Returns (bits, clipped): the (n,) bool bits,
    True meaning +1, and whether any sample was clipped.

    The lone channel runs the float loop, `_delta_sigma`, fed Python floats,
    which avoids a numpy scalar per sample; they are the same IEEE binary64
    values as the float64 samples. Channels that share the PDM clock, such as
    an FPGA's 200, go through `pdm_modulate_channels`, the in-place lockstep
    form of the loop. Both give the bits of the per-sample reference loop.
    """
    x, (clipped,) = _clip_block(np.asarray(waveform, dtype=np.float64)[:, None], 0)
    decisions = _delta_sigma(x[:, 0].tolist())
    return np.frombuffer(bytearray(decisions), dtype=bool), bool(clipped)


def pdm_modulate_channels(blocks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Encode C channels that share the PDM clock, given as time blocks.

    `blocks` is an iterable of (B, C) float64 arrays, time-major, whose
    concatenation along time is each channel's waveform of `n` ticks (a
    ValueError otherwise); B may differ from block to block. Each channel is
    clipped and flagged, and a NaN raises, as in `pdm_modulate`. Returns
    (bits, clipped): the (C, n) C-contiguous bool bits, whose row c equals
    `pdm_modulate` of column c, and the (C,) bool clip flags.

    All C channels step through the delta-sigma loop in lockstep, in place:
    the state is (C,) buffers that carry over from block to block, and a tick
    is seven ufunc calls, each writing its third argument, that allocate
    nothing:

        u = x - y;  s1 = s1 + u;  u = s1 - 2y;  s2 = s2 + u;
        d = s2 >= 0;  y = copysign(1, s2);  2y = y + y.

    These are the IEEE operations of `_delta_sigma`, in its order. The
    copysign equals its y = 2d - 1 because s2 is never -0.0: it starts at
    +0.0, s1 - 2y cannot round to -0.0 since 2y = +-2 is not zero, and in
    round-to-nearest a sum is -0.0 only when both its terms are. A block's
    decisions go into a (B, C) bool block and then, with one transposed
    copy, into the (C, n) output, so only one block of the waveform exists
    at once. Both loops give the bits of the per-sample reference loop.
    """
    # bound once, and fed arrays only: per call, a keyword `out` or a Python float operand costs more than
    # the arithmetic of 200 channels
    sub, add, ge, copysign = np.subtract, np.add, np.greater_equal, np.copysign
    bits = clipped = None
    a = 0  # ticks written so far
    for block in blocks:
        x = np.asarray(block, dtype=np.float64)
        if x.ndim != 2 or (bits is not None and x.shape[1] != len(bits)):
            width = "" if bits is None else f" of {len(bits)} channels"
            raise ValueError(f"expected (ticks, channels) blocks{width}, got shape {x.shape}")
        if a + len(x) > n:
            raise ValueError(f"the blocks hold more than the {n} ticks expected")
        if bits is None:
            channels = x.shape[1]
            bits, clipped = np.empty((channels, n), dtype=bool), np.zeros(channels, dtype=bool)
            s1, s2, u = np.zeros(channels), np.zeros(channels), np.empty(channels)
            one, zero = np.ones(channels), np.zeros(())
            y, y2 = np.ones(channels), np.full(channels, 2.0)  # y = 1 at the start of a stream
        x, over = _clip_block(x, a)
        clipped |= over
        decisions = np.empty(x.shape, dtype=bool)
        for xi, d in zip(x, decisions):
            sub(xi, y, u)
            add(s1, u, s1)
            sub(s1, y2, u)
            add(s2, u, s2)
            ge(s2, zero, d)
            copysign(one, s2, y)
            add(y, y, y2)
        bits[:, a : a + len(x)] = decisions.T
        a += len(x)
        del block, x, decisions  # before the next block is made
    if a != n:
        raise ValueError(f"the blocks hold {a} ticks, expected {n}")
    if bits is None:
        return np.zeros((0, 0), dtype=bool), np.zeros(0, dtype=bool)
    return bits, clipped


def _cic_tables() -> np.ndarray:
    """The CIC as word lookups (Hogenauer 1981: a CIC of order N and ratio R
    is a boxcar(R)^N FIR decimated by R).

    The FIR h has N (R - 1) + 1 = 76 taps, zero-padded to N R = 80. An
    output sample ends on bit 16k + 15, so the word k - w holding bits
    16(k - w) + p adds T_w[word] = sum_p h[16 w + 15 - p] (2 bit_p - 1).
    Each table is a byte table of the low 8 bits plus one of the high 8.
    """
    h = np.ones(1, dtype=np.int64)
    for _ in range(CIC_ORDER):
        h = np.convolve(h, np.ones(CIC_R, dtype=np.int64))
    h = np.pad(h, (0, CIC_ORDER * CIC_R - len(h)))
    taps = h.reshape(CIC_ORDER, CIC_R)[:, ::-1]  # taps[w, p] = h[16 w + 15 - p]
    signs = ((np.arange(256)[:, None] >> np.arange(8)) & 1) * 2 - 1  # (byte, bit) -> -1 or +1
    low, high = signs @ taps[:, :8].T, signs @ taps[:, 8:].T  # (256, N) each
    return (high.T[:, :, None] + low.T[:, None, :]).reshape(CIC_ORDER, -1).astype(np.int32)


@lru_cache(maxsize=1)
def decimation_design() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The decimation chain's coefficients (designed once, deterministic).

    Returns (cic, hb1, hb2, comp): the CIC as CIC_ORDER lookup tables,
    (CIC_ORDER, 65536) int32, whose row w maps a 16-bit word of the bit
    stream to its part of the output sample w words later (`_cic_tables`),
    and the three FIR stages behind it. A caller that decimates after a
    large allocation, as `acquire` does after modulating, calls this first,
    so the long-lived design is not placed above memory that is freed later.
    """
    from scipy import signal as sig  # slow to load, so imported only where it is used
    # 192 kHz -> 96 kHz; images of the final band fall at 72..120 kHz
    hb1 = sig.remez(HB1_TAPS, [0, 24_000, 72_000, 96_000], [1, 0], weight=[1, 10], fs=192_000)
    # 96 kHz -> 48 kHz; transition 20..28 kHz centered on 24 kHz
    hb2 = sig.remez(HB2_TAPS, [0, 20_000, 28_000, 48_000], [1, 0], weight=[1, 10], fs=96_000)
    # droop equalizer at the output rate
    freqs = np.linspace(0.0, 24_000.0, 241)
    gains = 1.0 / np.abs(cic_response(freqs))
    comp = sig.firwin2(COMP_TAPS, freqs / 24_000.0, gains)
    return _cic_tables(), hb1, hb2, comp


def cic_response(frequency) -> np.ndarray:
    """Normalized magnitude of the CIC stage at the PDM input rate."""
    f = np.atleast_1d(np.asarray(frequency, dtype=float))
    num = np.sin(np.pi * f * CIC_R / PDM_RATE)
    den = CIC_R * np.sin(np.pi * f / PDM_RATE)
    out = np.ones_like(f)
    nz = f != 0.0
    out[nz] = (num[nz] / den[nz]) ** CIC_ORDER
    return out


def chain_frequency_response(frequency) -> np.ndarray:
    """Complex passband response of the complete decimation chain."""
    from scipy import signal as sig

    _, hb1, hb2, comp = decimation_design()
    f = np.atleast_1d(np.asarray(frequency, dtype=float))
    h = cic_response(f).astype(complex)
    _, h1 = sig.freqz(hb1, worN=2 * np.pi * f / 192_000)
    _, h2 = sig.freqz(hb2, worN=2 * np.pi * f / 96_000)
    _, hc = sig.freqz(comp, worN=2 * np.pi * f / 48_000)
    return h * h1 * h2 * hc


def decimation_group_delay() -> float:
    """Constant chain latency in output (48 kHz) samples.

    The CIC contributes N (R - 1) / 2 input samples minus the R - 1 samples
    the decimator pick (first full window) advances the stream by.
    """
    cic = (CIC_ORDER * (CIC_R - 1) / 2.0 - (CIC_R - 1)) / DECIMATION
    return cic + (HB1_TAPS - 1) / 2.0 / 4.0 + (HB2_TAPS - 1) / 2.0 / 2.0 + (COMP_TAPS - 1) / 2.0


def decimation_warmup_bits() -> int:
    """Input samples consumed before the chain output is settled."""
    return CIC_ORDER * CIC_R + HB1_TAPS * 16 + HB2_TAPS * 32 + COMP_TAPS * 64


def pdm_decimate(bits: np.ndarray) -> np.ndarray:
    """Convert PDM bits to 48 kHz PCM through the four-stage chain, along the last axis.

    One channel's (n,) bits give its (m,) int32 PCM codes, and an FPGA's
    (C, n) bits give (C, m), each row the codes of that row alone. Stage
    ratios are 16 (CIC), 2, 2, and 1 (compensator). Bits are mapped to +-1,
    so the chain is DC-free for a balanced stream. The CIC is exact integer
    arithmetic: each output sample is the sum of CIC_ORDER table lookups
    (`decimation_design`) of the 16-bit words the stream packs into; bits
    after the last whole word end no output sample and are not read. Rows go
    through in blocks of DECIMATE_BLOCK_ROWS, so the working memory is that
    of a block. Digital full scale, 1.0 Pa, maps to PCM_FULL_SCALE_CODE, and
    the chain delays the signal by `decimation_group_delay()` output samples.
    """
    bits = np.asarray(bits)
    if bits.ndim == 0:
        raise ValueError("expected (n,) or (C, n) bits, got a scalar")
    n = bits.shape[-1]
    if n < decimation_warmup_bits():
        raise ValueError(
            f"stream of {n} bits is shorter than the filter warm-up "
            f"({decimation_warmup_bits()} bits)"
        )
    from scipy import signal as sig

    cic, hb1, hb2, comp = decimation_design()
    rows = bits.reshape(-1, n)
    m = n // CIC_R  # output samples of the CIC, one per whole word
    out = np.empty((len(rows), -(-m // 4)), dtype=np.int32)  # hb1 and hb2 each keep every second sample
    for a in range(0, len(rows), DECIMATE_BLOCK_ROWS):
        words = np.packbits(rows[a : a + DECIMATE_BLOCK_ROWS, : m * CIC_R], axis=-1, bitorder="little").view("<u2")
        x = cic[0][words]
        for w in range(1, CIC_ORDER):
            x[:, w:] += cic[w][words[:, :-w]]  # before the stream starts, word k - w adds nothing
        y = x.astype(np.float64) / float(CIC_R**CIC_ORDER)
        y = sig.lfilter(hb1, 1.0, y, axis=-1)[:, ::2]
        y = sig.lfilter(hb2, 1.0, y, axis=-1)[:, ::2]
        y = sig.lfilter(comp, 1.0, y, axis=-1)
        out[a : a + len(y)] = np.clip(np.rint(y * PCM_FULL_SCALE_CODE), -(2**31), PCM_FULL_SCALE_CODE)
    return out.reshape(bits.shape[:-1] + out.shape[1:])


def packetize(
    bits: np.ndarray,
    fpga_id: int = 0,
    frames_per_packet: int = DEFAULT_FRAMES_PER_PACKET,
) -> list[DaqPacket]:
    """Frame an FPGA's (200, n) PDM bits into channel-major packets."""
    if bits.ndim != 2 or len(bits) != CHANNELS_PER_FPGA:
        raise ValueError(f"expected ({CHANNELS_PER_FPGA}, n) bits, got shape {bits.shape}")
    # both go into uint16 header fields
    if not 0 <= fpga_id <= 0xFFFF:
        raise ValueError(f"fpga_id must be 0 to 65535, got {fpga_id}")
    if not 1 <= frames_per_packet <= 0xFFFF:
        raise ValueError(f"frames_per_packet must be 1 to 65535, got {frames_per_packet}")
    n_bits = bits.shape[1]
    packets = []
    seq = 0
    for start in range(0, n_bits, frames_per_packet):
        frames = min(frames_per_packet, n_bits - start)
        chunk = bits[:, start : start + frames]
        payload = np.packbits(chunk, axis=1).tobytes()
        packets.append(
            DaqPacket(
                fpga_id=fpga_id,
                sequence=seq,
                sample_timestamp=start,
                payload=payload,
                channels=CHANNELS_PER_FPGA,
                frames=frames,
            )
        )
        seq += 1
    return packets


def _check_headers(fpga_id: int, plist: list[DaqPacket]):
    """Raise ProtocolError unless one FPGA's packets, in sequence order, agree
    on their layout: one channel count, the full frame count in every packet
    but the last, and each timestamp equal to sequence x full frames. The stream buffer is sized from the last
    header, so this runs before anything is allocated from it."""
    last = plist[-1]
    if len(plist) > 1:
        full = plist[0].frames
    elif last.sequence:  # a lone packet sets the frame count by its position
        full = last.sample_timestamp // last.sequence
    else:
        full = last.frames
    channels = plist[0].channels
    for p in plist:
        where = f"FPGA {fpga_id} packet {p.sequence}"
        if p.channels != channels:
            raise ProtocolError(f"{where} has {p.channels} channels, packet {plist[0].sequence} has {channels}")
        if not 0 < p.frames <= full or (p is not last and p.frames != full):
            raise ProtocolError(f"{where} has {p.frames} frames; packets hold {full}, the last one 1 to {full}")
        if p.sample_timestamp != p.sequence * full:
            raise ProtocolError(
                f"{where} has timestamp {p.sample_timestamp}, expected {p.sequence} x {full} frames"
            )


def depacketize(packets: list[DaqPacket], allow_gaps: bool = False):
    """Reassemble packets into each FPGA's (C, n) bits.

    Packets are resequenced by (fpga_id, sequence); duplicates raise, and
    missing sequences either raise or are filled with alternating bits, the
    PDM code of a silent (mid-scale) input, and reported. Headers an FPGA's
    packets disagree on raise ProtocolError (`_check_headers`). Returns
    ({fpga_id: (C, n) bool bits}, gap_records).
    """
    by_fpga: dict[int, list[DaqPacket]] = {}
    for p in packets:
        by_fpga.setdefault(p.fpga_id, []).append(p)

    bits_out: dict[int, np.ndarray] = {}
    gaps: list[GapRecord] = []
    for fpga_id in sorted(by_fpga):
        plist = sorted(by_fpga[fpga_id], key=lambda p: p.sequence)
        seqs = [p.sequence for p in plist]
        for a, b in zip(seqs, seqs[1:]):
            if a == b:
                raise ProtocolError(f"duplicate sequence {a} for FPGA {fpga_id}")
        _check_headers(fpga_id, plist)
        total = plist[-1].sample_timestamp + plist[-1].frames
        channels = plist[0].channels
        bits = np.zeros((channels, total), dtype=bool)
        bits[:, ::2] = True  # what no packet overwrites is a gap
        # sequences start at 0 per capture, so a late first packet is a gap
        expected_seq = 0
        expected_ts = 0
        for p in plist:
            if p.sequence != expected_seq:
                gap = GapRecord(
                    fpga_id=fpga_id,
                    first_sequence=expected_seq,
                    last_sequence=p.sequence - 1,
                    start_sample=expected_ts,
                    end_sample=p.sample_timestamp,
                )
                if not allow_gaps:
                    raise ProtocolError(
                        f"missing sequences {gap.first_sequence}..{gap.last_sequence} "
                        f"(samples {gap.start_sample}..{gap.end_sample}) for FPGA {fpga_id}"
                    )
                gaps.append(gap)
            stride = (p.frames + 7) // 8
            packed = np.frombuffer(p.payload, dtype=np.uint8).reshape(channels, stride)
            chunk = np.unpackbits(packed, axis=1, count=p.frames)
            bits[:, p.sample_timestamp : p.sample_timestamp + p.frames] = chunk
            expected_seq = p.sequence + 1
            expected_ts = p.sample_timestamp + p.frames
        bits_out[fpga_id] = bits
    return bits_out, gaps


def stream_data_rate(channels: int, pdm_rate: float = PDM_RATE, overhead_fraction: float = 0.0) -> float:
    """Continuous link rate in Mbit/s for 1-bit streams plus framing overhead."""
    if channels < 1:
        raise ValueError("channels must be >= 1")
    return channels * pdm_rate * (1.0 + overhead_fraction) / 1e6


def phase_skew_budget(skew_seconds: float, frequency: float) -> float:
    """Worst-case inter-channel phase error in degrees for a clock skew."""
    if skew_seconds < 0:
        raise ValueError("skew must be >= 0")
    return 360.0 * skew_seconds * frequency


def write_capture(path, packets: list[DaqPacket]):
    """Raw capture file: little-endian length-prefixed DaqPackets."""
    with open(path, "wb") as fh:
        for p in packets:
            raw = p.pack()
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)


def read_capture(path) -> list[DaqPacket]:
    """Packets of a `write_capture` file; a truncated or corrupt file raises ProtocolError."""
    packets = []
    with open(path, "rb") as fh:
        remaining = os.fstat(fh.fileno()).st_size
        while remaining:
            if remaining < 4:
                raise ProtocolError(f"capture ends inside the length prefix of packet {len(packets)}")
            (n,) = struct.unpack("<I", fh.read(4))
            remaining -= 4
            if n > remaining:
                raise ProtocolError(f"capture ends {n - remaining} bytes short of packet {len(packets)}")
            packets.append(DaqPacket.unpack(fh.read(n)))
            remaining -= n
    return packets
