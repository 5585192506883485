//! Lock-free ingest counters, aggregated across every connection and
//! merged with the fleet's own [`seqdrift_fleet::MetricsSnapshot`] in the
//! final [`crate::ServerReport`].

seqdrift_fleet::counter_table! {
    /// Aggregate network-layer counters. Connection handler threads bump
    /// these with relaxed atomics; readers take a point-in-time
    /// [`ServerMetricsSnapshot`].
    pub struct ServerMetrics;
    /// Point-in-time copy of [`ServerMetrics`].
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ServerMetricsSnapshot {}
    /// Connections accepted since startup.
    connections_accepted,
    /// Connections currently open.
    connections_active,
    /// Connections dropped for exceeding the idle timeout.
    connections_evicted_idle,
    /// Connections dropped on a fatal protocol error (corrupt/hostile bytes).
    connections_dropped_protocol,
    /// Frames successfully decoded.
    frames_rx,
    /// Frames written.
    frames_tx,
    /// Bytes read off accepted connections.
    bytes_rx,
    /// Bytes written to connections.
    bytes_tx,
    /// Sample rows applied to the fleet.
    samples_accepted,
    /// BUSY replies sent (feed deadline exceeded under backpressure).
    busy_replies,
    /// NACK replies sent (fatal and non-fatal).
    nacks_sent,
    /// Sessions auto-created from the reference model on HELLO.
    sessions_created,
    /// HELLOs for a session the server already knew: each one is a device
    /// reconnecting after a blip, an eviction, or a server restart.
    reconnects,
    /// Sum of the `resume_from` offsets acked on those reconnect HELLOs:
    /// rows the devices did *not* replay because the server had them.
    resumed_samples,
    /// Connections or frames refused by admission control (connection
    /// cap, per-IP accept-rate limit, bytes-in-flight cap).
    admission_rejections,
    /// Connections dropped at the HELLO deadline (half-open or trickling).
    handshake_timeouts,
}
