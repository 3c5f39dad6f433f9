/**
 * @file
 * UART link model for the HIL tether (§5.2): the host transmits the
 * drone state + target downlink, the SoC returns motor commands.
 * 8N1 framing: 10 baud periods per byte, plus protocol framing bytes.
 * The paper notes the UART latency keeps real-time implementations
 * from matching the ideal policy on hard scenarios even when solve
 * time is below the simulation timestep — this model reproduces that
 * floor.
 */

#ifndef RTOC_SOC_UART_HH
#define RTOC_SOC_UART_HH

namespace rtoc::soc {

/** Point-to-point UART latency model. */
class UartModel
{
  public:
    /**
     * Largest payload a small frame covers: one length byte plus a
     * CRC-16. Larger messages need a two-byte length field and a
     * CRC-32, adding 3 framing bytes. Every registered plant's
     * state/command message fits a small frame today (the quadrotor's
     * 15-float uplink is 60 bytes), so the historical fixed overhead
     * is exactly the small-frame cost; wide custom shapes pay the
     * large-frame overhead their payload actually needs.
     */
    static constexpr int kMaxSmallPayload = 255;

    /**
     * @param baud_rate line rate (default 460800, a typical tethered
     *        research-chip configuration)
     * @param framing_bytes small-frame protocol overhead per message
     *        (sync + length + flags + CRC-16)
     */
    explicit UartModel(double baud_rate = 460800.0,
                       int framing_bytes = 6)
        : baud_(baud_rate), framing_(framing_bytes)
    {}

    /** Framing overhead carried by a @p payload_bytes message. */
    int
    framingBytes(int payload_bytes) const
    {
        return payload_bytes <= kMaxSmallPayload ? framing_
                                                 : framing_ + 3;
    }

    /** Seconds to transfer @p payload_bytes. */
    double
    transferS(int payload_bytes) const
    {
        double bits = 10.0 * static_cast<double>(
                                 payload_bytes +
                                 framingBytes(payload_bytes));
        return bits / baud_;
    }

    /** Host -> SoC: @p state_elems state + 3 target elements.
     *  @p elem_bytes is the wire width per element, the numeric
     *  format's (matlib::formatElemBytes): float32 ships 4 bytes,
     *  the 16-bit formats 2. */
    double uplinkS(int state_elems, int elem_bytes) const
    {
        return transferS((state_elems + 3) * elem_bytes);
    }

    /** SoC -> host: @p cmd_elems actuator command elements. */
    double downlinkS(int cmd_elems, int elem_bytes) const
    {
        return transferS(cmd_elems * elem_bytes);
    }

  private:
    double baud_;
    int framing_;
};

} // namespace rtoc::soc

#endif // RTOC_SOC_UART_HH
