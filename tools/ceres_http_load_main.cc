// ceres_http_load — multi-connection load driver for ceres_httpd.
//
// Opens --clients concurrent connections and drives --requests total
// requests through them closed-loop (each client fires its next request
// as soon as the previous response lands). Default mode reuses each
// client's keep-alive connection; --per-request closes and reconnects
// around every request.
//
// Targets /healthz by default (socket-edge load with negligible server
// work). --site S switches to POST /extract?site=S with --body-file (or
// a small built-in page) as the HTML payload.
//
// Prints QPS, client-observed latency percentiles over the requests that
// got a response, and a status-code histogram. Exit status 0 when every
// request got an HTTP response (whatever its status), 1 on any transport
// error.
//
// Usage:
//   ceres_http_load --port N [--host 127.0.0.1] [--clients 4]
//                   [--requests 1000] [--path /healthz] [--site S]
//                   [--body-file F] [--per-request]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flag_value.h"
#include "net/http_client.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

using namespace ceres;  // NOLINT(build/namespaces)

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int clients = 4;
  int requests = 1000;
  std::string path = "/healthz";
  std::string site;
  std::string body_file;
  bool per_request = false;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: ceres_http_load --port N [--host H] [--clients N]\n"
               "  [--requests N] [--path P] [--site S] [--body-file F]\n"
               "  [--per-request]\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    bool ok = true;
    if (arg == "--host" && next(&value)) {
      options->host = value;
    } else if (arg == "--port") {
      ok = next(&value) && tools::ParseFlagValue(value, &options->port, 1);
    } else if (arg == "--clients") {
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->clients, 1);
    } else if (arg == "--requests") {
      ok = next(&value) &&
           tools::ParseFlagValue(value, &options->requests, 1);
    } else if (arg == "--path" && next(&value)) {
      options->path = value;
    } else if (arg == "--site" && next(&value)) {
      options->site = value;
    } else if (arg == "--body-file" && next(&value)) {
      options->body_file = value;
    } else if (arg == "--per-request") {
      options->per_request = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad %s: %s\n", arg.c_str(), value.c_str());
      return false;
    }
  }
  return options->port != 0;  // --port is required
}

int64_t Percentile(std::vector<int64_t>* sorted_micros, double p) {
  if (sorted_micros->empty()) return 0;
  const size_t index = std::min(
      sorted_micros->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_micros->size())));
  return (*sorted_micros)[index];
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }

  net::HttpRequest request;
  if (!options.site.empty()) {
    request.method = "POST";
    request.target = StrCat("/extract?site=", options.site);
    if (!options.body_file.empty()) {
      std::ifstream in(options.body_file, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", options.body_file.c_str());
        return 2;
      }
      std::ostringstream content;
      content << in.rdbuf();
      request.body = content.str();
    } else {
      request.body =
          "<html><body><h1>Sample Film</h1>"
          "<span>Directed by A Director</span></body></html>";
    }
  } else {
    request.method = "GET";
    request.target = options.path;
  }
  request.version = "HTTP/1.1";

  std::atomic<int> next_index{0};
  std::atomic<int64_t> transport_errors{0};
  std::atomic<int64_t> reconnects{0};
  std::vector<std::vector<int64_t>> latencies(
      static_cast<size_t>(options.clients));
  std::vector<std::map<int, int64_t>> status_counts(
      static_cast<size_t>(options.clients));

  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < options.clients; ++c) {
    clients.emplace_back([&, c] {
      net::HttpClient client(options.host, options.port);
      for (;;) {
        if (next_index.fetch_add(1) >= options.requests) break;
        const Clock::time_point start = Clock::now();
        Result<net::HttpResponse> response = client.Roundtrip(request);
        // A refused or reset connection fails in microseconds; it counts
        // as a transport error, never as a fast latency sample.
        if (!response.ok()) {
          transport_errors.fetch_add(1);
          client.Close();
          continue;
        }
        latencies[static_cast<size_t>(c)].push_back(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - start)
                .count());
        ++status_counts[static_cast<size_t>(c)][response->status];
        if (options.per_request) client.Close();
      }
      reconnects.fetch_add(client.reconnects());
    });
  }
  for (std::thread& client : clients) client.join();
  const double wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          Clock::now() - t0)
          .count();

  std::vector<int64_t> all_latencies;
  std::map<int, int64_t> statuses;
  for (int c = 0; c < options.clients; ++c) {
    all_latencies.insert(all_latencies.end(),
                         latencies[static_cast<size_t>(c)].begin(),
                         latencies[static_cast<size_t>(c)].end());
    for (const auto& [status, count] : status_counts[static_cast<size_t>(c)]) {
      statuses[status] += count;
    }
  }
  std::sort(all_latencies.begin(), all_latencies.end());

  std::printf("requests   %d (%s)\n", options.requests,
              options.per_request ? "connection-per-request" : "keep-alive");
  std::printf("wall       %.3f s\n", wall_seconds);
  std::printf("qps        %.1f\n",
              static_cast<double>(options.requests) / wall_seconds);
  std::printf("latency    p50 %lld us   p95 %lld us   p99 %lld us   "
              "(%zu answered)\n",
              static_cast<long long>(Percentile(&all_latencies, 0.50)),
              static_cast<long long>(Percentile(&all_latencies, 0.95)),
              static_cast<long long>(Percentile(&all_latencies, 0.99)),
              all_latencies.size());
  for (const auto& [status, count] : statuses) {
    std::printf("status %d  %lld\n", status,
                static_cast<long long>(count));
  }
  std::printf("reconnects %lld  transport_errors %lld\n",
              static_cast<long long>(reconnects.load()),
              static_cast<long long>(transport_errors.load()));
  return transport_errors.load() == 0 ? 0 : 1;
}
