// perfbench: the end-to-end download benchmark's measuring binary.
//
//   perfbench --workload <small_fetch|bulk_fetch|paced_share> --seed <n>
//             --seconds <s> --trace <0|1> --out <path>
//
// Writes one JSON document of raw measurements to --out; perfbench/run.py
// builds this binary, runs it, and turns the document into metrics.
// Every server and client runs in this process and talks over loopback
// TCP (127.0.0.1).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "gf/row_ops.hpp"
#include "json.hpp"
#include "workloads.hpp"

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> "
    "--trace <0|1> --out <path>\n";

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return std::string_view(PERFBENCH_BUILD_TYPE) != "Debug";
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload")
      args.workload = value;
    else if (flag == "--seed")
      args.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds")
      args.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace")
      args.trace = std::string_view(value) == "1";
    else if (flag == "--out")
      args.out = value;
    else {
      std::fputs(kUsage, stderr);
      return 2;
    }
  }
  if (args.workload.empty() || args.out.empty() || !(args.seconds > 0.0)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  perfbench::JsonWriter doc;
  doc.begin_object();
  doc.key("host").begin_object();
  doc.field("nproc",
            static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  doc.field("gf_kernel",
            fairshare::gf::field_view(fairshare::gf::FieldId::gf2_32).kernel);
  doc.field("build_type", PERFBENCH_BUILD_TYPE);
  doc.field("transport", "loopback TCP (127.0.0.1), in-process servers");
  doc.end_object();
  doc.field("seed", static_cast<std::uint64_t>(args.seed));
  doc.field("seconds", args.seconds);
  doc.field("trace", args.trace);
  doc.key("result");
  try {
    if (!perfbench::run_workload(args, doc)) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  doc.end_object();

  std::ofstream out(args.out, std::ios::trunc);
  out << doc.str() << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
