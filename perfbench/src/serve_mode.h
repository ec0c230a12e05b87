// The bench-owned server process (`perfbench serve`): net::Server::Start
// over the shared bench configuration. It prints "ready port=N" once
// listening, serves until its stdin reaches EOF, drains with Shutdown(),
// and then prints its serving-side counters as "name value" lines followed
// by "end". Only records tagged kWindowTag count toward them; the counters
// that net::Server and PrefixRegistry expose while serving are reported as
// the change since the kWindowMarker line arrived on stdin.
//
//   perfbench serve [--trace-out=FILE]
//
// --trace-out arms the obs span tracer for the whole process lifetime and
// writes the Chrome trace there after Shutdown().
#ifndef PERFBENCH_SRC_SERVE_MODE_H_
#define PERFBENCH_SRC_SERVE_MODE_H_

namespace perfbench {

/// Submit tag of timed-window requests (warm-up requests use another).
inline constexpr char kWindowTag[] = "window";
inline constexpr char kWarmupTag[] = "warmup";
/// Line the parent writes to the server's stdin when the warm-up has ended
/// and the timed window starts.
inline constexpr char kWindowMarker[] = "window";

int RunServeMode(int argc, char** argv);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SERVE_MODE_H_
