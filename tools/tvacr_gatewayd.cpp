// tvacr_gatewayd — resident ingest gateway daemon.
//
//   tvacr_gatewayd <capture.{pcap,tvcr}|fd:N> <device-ip>
//                  [--ring N] [--ingest-bytes N] [--drain-batch N]
//                  [--follow] [--control]
//                  [--snapshot-out P] [--metrics-out P] [--ledger-out P]
//
// Continuously ingests a capture stream — a pcap/.tvcr file (tailed for
// growth with --follow, so it may still be written) or raw pcap bytes on an
// inherited descriptor ("fd:N") — through a fixed-size ring buffer into the
// streaming attribution engine, one pass in capture order. Without
// --follow, a file source ends at its first idle poll (the file is
// complete), while an fd source waits for its writer to close it.
// Backpressure is explicit: when the ring is full, records are dropped and
// ledgered per reason, and the accounting invariant offered == accepted +
// dropped holds exactly at all times (the daemon verifies it at exit and
// fails loudly if violated).
//
// --control serves the line protocol from gateway/control.hpp on
// stdin/stdout (SNAPSHOT, METRICS, STATS, LEDGER, DRAIN, SHUTDOWN), e.g.:
//
//   printf 'STATS\nSHUTDOWN\n' |
//       tvacr_gatewayd run.pcap 192.168.4.23 --control --snapshot-out live.report
//
// A capture that ends inside its file header exits 1 with the batch
// reader's "truncated file header" error; an empty one is an empty capture.
//
// Shutdown is always graceful: SIGINT/SIGTERM (or the SHUTDOWN verb) stops
// ingest, drains the ring, takes the final snapshot, and finalizes every
// output file via tmp+rename — the snapshot a dying daemon leaves behind is
// complete or absent, never torn. The final snapshot is byte-identical to
// `tvacr_analyze --report` over the same capture; under forced drops it
// matches the batch run over the accepted subset, which the ledger
// identifies by offer index.
#include <chrono>
#include <cstdio>
#include <csignal>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/file_io.hpp"
#include "common/flags.hpp"
#include "common/parse.hpp"
#include "common/signal.hpp"
#include "gateway/control.hpp"
#include "gateway/gateway.hpp"
#include "gateway/source.hpp"
#include "replay/replay.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TVACR_GATEWAYD_HAVE_POLL 1
#include <poll.h>
#include <unistd.h>
#endif

using namespace tvacr;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <capture.{pcap,tvcr}|fd:N> <device-ip>\n"
                 "          [--ring N] [--ingest-bytes N] [--drain-batch N]\n"
                 "          [--follow] [--control]\n"
                 "          [--snapshot-out P] [--metrics-out P] [--ledger-out P]\n",
                 argv0);
    return 2;
}

/// Line-assembling control channel over stdin. Non-blocking polls during
/// streaming; optional blocking reads once the stream is done.
class ControlChannel {
  public:
    /// Pulls any complete lines currently readable. `block` waits for at
    /// least one line (or EOF). Returns the lines in arrival order.
    std::vector<std::string> read_lines(bool block) {
        std::vector<std::string> lines;
        while (!eof_) {
            if (!readable(block && lines.empty() && !has_line())) break;
            char chunk[4096];
#if defined(TVACR_GATEWAYD_HAVE_POLL)
            const long got = ::read(STDIN_FILENO, chunk, sizeof(chunk));
#else
            const long got =
                static_cast<long>(std::fread(chunk, 1, sizeof(chunk), stdin));
#endif
            if (got <= 0) {
                eof_ = true;
                break;
            }
            buffer_.append(chunk, static_cast<std::size_t>(got));
        }
        std::size_t start = 0;
        for (std::size_t nl = buffer_.find('\n', start); nl != std::string::npos;
             nl = buffer_.find('\n', start)) {
            lines.push_back(buffer_.substr(start, nl - start));
            start = nl + 1;
        }
        buffer_.erase(0, start);
        // At EOF any unterminated tail is still a command (printf without
        // a trailing newline).
        if (eof_ && !buffer_.empty()) {
            lines.push_back(buffer_);
            buffer_.clear();
        }
        return lines;
    }

    [[nodiscard]] bool at_eof() const noexcept { return eof_ && buffer_.empty(); }

  private:
    [[nodiscard]] bool has_line() const { return buffer_.find('\n') != std::string::npos; }

    [[nodiscard]] static bool readable(bool block) {
#if defined(TVACR_GATEWAYD_HAVE_POLL)
        struct pollfd p{};
        p.fd = STDIN_FILENO;
        p.events = POLLIN;
        const int n = ::poll(&p, 1, block ? -1 : 0);
        return n > 0 && (p.revents & (POLLIN | POLLHUP)) != 0;
#else
        return block;  // non-POSIX: only blocking reads
#endif
    }

    std::string buffer_;
    bool eof_ = false;
};

}  // namespace

int main(int argc, char** argv) {
    gateway::GatewayOptions options;
    std::size_t ingest_bytes = 256 * 1024;
    std::size_t drain_batch = 4096;
    bool follow = false;
    bool control = false;
    std::string snapshot_out;
    std::string metrics_out;
    std::string ledger_out;
    const auto positionals = common::parse_flags(
        argc, argv,
        {
            {"--ring", options.ring_capacity, 1, 1 << 28},
            {"--ingest-bytes", ingest_bytes, 1, 1 << 30},
            {"--drain-batch", drain_batch, 1, 1 << 28},
            {"--follow", follow},
            {"--control", control},
            {"--snapshot-out", snapshot_out},
            {"--metrics-out", metrics_out},
            {"--ledger-out", ledger_out},
        },
        usage);
    if (positionals.size() != 2) return usage(argv[0]);
    const std::string& source_arg = positionals[0];
    const auto device_ip = net::Ipv4Address::parse(positionals[1]);
    if (!device_ip.ok()) {
        std::fprintf(stderr, "bad device ip: %s\n", positionals[1].c_str());
        return 2;
    }
    options.device_ip = device_ip.value();

    const bool fd_source = source_arg.rfind("fd:", 0) == 0;
    auto source = [&]() -> Result<gateway::StreamSource> {
        if (fd_source) {
            const long long fd =
                common::parse_flag_int("fd:<n> source", source_arg.substr(3), 0, 1 << 20);
            if (control && fd == 0) {
                std::fprintf(stderr, "fd:0 source conflicts with --control (both use stdin)\n");
                std::exit(2);
            }
            return gateway::StreamSource::open_fd(static_cast<int>(fd));
        }
        return gateway::StreamSource::open_file(source_arg);
    }();
    if (!source.ok()) {
        std::fprintf(stderr, "%s\n", source.error().message.c_str());
        return 1;
    }

    common::install_shutdown_handlers();
#if TVACR_GATEWAYD_HAVE_POLL
    // A control consumer that closes its end of the pipe must not kill the
    // daemon mid-response: writes start failing instead, and the finalize
    // path (snapshot/metrics/ledger files) still runs to completion.
    std::signal(SIGPIPE, SIG_IGN);
#endif
    gateway::Gateway gw(options);
    ControlChannel channel;

    bool source_done = false;
    bool shutdown = false;
    while (!shutdown && !common::shutdown_requested()) {
        bool idle = true;
        if (!source_done) {
            auto polled = source.value().poll(gw, ingest_bytes);
            if (!polled.ok()) {
                std::fprintf(stderr, "source error: %s\n", polled.error().message.c_str());
                return 1;
            }
            switch (polled.value()) {
                case gateway::SourceStatus::kProgress: idle = false; break;
                case gateway::SourceStatus::kEnd: source_done = true; break;
                case gateway::SourceStatus::kIdle:
                    // An idle file is complete unless followed; an idle pipe
                    // only has a slow writer, and ends at kEnd (EOF).
                    if (!follow && !fd_source) source_done = true;
                    break;
            }
        }
        if (gw.drain(drain_batch) > 0) idle = false;

        if (control && !channel.at_eof()) {
            // Block for commands only once there is nothing else to do:
            // stream finished and ring drained.
            const bool may_block = source_done && gw.ring_occupancy() == 0;
            for (const std::string& line : channel.read_lines(may_block)) {
                const auto response = gateway::handle_control_line(gw, line);
                std::fwrite(response.text.data(), 1, response.text.size(), stdout);
                std::fflush(stdout);
                if (response.shutdown) shutdown = true;
            }
            if (!channel.at_eof()) idle = false;
        }

        if (source_done && gw.ring_occupancy() == 0 &&
            (!control || channel.at_eof() || shutdown)) {
            break;
        }
        if (idle) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool interrupted = common::shutdown_requested();

    // Graceful shutdown: account the torn tail, drain everything accepted,
    // snapshot, finalize outputs. Runs identically for clean EOF, SHUTDOWN,
    // and SIGINT/SIGTERM.
    if (auto finalized = source.value().finalize(gw); !finalized.ok()) {
        std::fprintf(stderr, "source error: %s\n", finalized.error().message.c_str());
        return 1;
    }
    gw.drain_all();
    const analysis::CaptureAnalyzer analyzer = gw.snapshot();
    const std::string report = replay::canonical_report(analyzer);

    int exit_code = 0;
    if (!snapshot_out.empty()) {
        auto written = common::write_file_finalized(snapshot_out, [&](std::ostream& out) {
            out.write(report.data(), static_cast<std::streamsize>(report.size()));
            return out.good() ? Status::success()
                              : Status(make_error("snapshot write failed: " + snapshot_out));
        });
        if (!written.ok()) {
            std::fprintf(stderr, "%s\n", written.error().message.c_str());
            exit_code = 1;
        }
    }
    if (!metrics_out.empty()) {
        const std::string metrics_json = gw.metrics().to_json() + "\n";
        auto written = common::write_file_finalized(metrics_out, [&](std::ostream& out) {
            out.write(metrics_json.data(), static_cast<std::streamsize>(metrics_json.size()));
            return out.good() ? Status::success()
                              : Status(make_error("metrics write failed: " + metrics_out));
        });
        if (!written.ok()) {
            std::fprintf(stderr, "%s\n", written.error().message.c_str());
            exit_code = 1;
        }
    }
    if (!ledger_out.empty()) {
        const std::string ledger = gw.ledger_text();
        auto written = common::write_file_finalized(ledger_out, [&](std::ostream& out) {
            out.write(ledger.data(), static_cast<std::streamsize>(ledger.size()));
            return out.good() ? Status::success()
                              : Status(make_error("ledger write failed: " + ledger_out));
        });
        if (!written.ok()) {
            std::fprintf(stderr, "%s\n", written.error().message.c_str());
            exit_code = 1;
        }
    }

    std::fprintf(stderr,
                 "gatewayd: offered=%llu accepted=%llu drained=%llu dropped.ring_full=%llu "
                 "dropped.truncated=%llu%s\n",
                 static_cast<unsigned long long>(gw.offered()),
                 static_cast<unsigned long long>(gw.accepted()),
                 static_cast<unsigned long long>(gw.drained()),
                 static_cast<unsigned long long>(gw.dropped_ring_full()),
                 static_cast<unsigned long long>(gw.dropped_truncated()),
                 interrupted ? " (interrupted)" : "");
    if (!gw.conservation_ok()) {
        std::fprintf(stderr, "gatewayd: CONSERVATION VIOLATED (offered != accepted + dropped)\n");
        return 1;
    }
    std::fprintf(stderr, "gatewayd: conservation ok\n");
    if (interrupted && exit_code == 0) exit_code = 130;  // complete outputs, honest exit code
    return exit_code;
}
