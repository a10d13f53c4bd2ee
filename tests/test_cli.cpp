// tsyn_cli's command-line contract, driven through the built binary:
// exit codes, `--opt=value` equivalence, the usage text, and stdout purity
// when an output goes to "-".
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "cdfg/generator.h"
#include "cdfg/parser.h"
#include "util/json.h"

namespace {

namespace fs = std::filesystem;

struct Outcome {
  int code = -1;
  std::string out;  ///< stdout, plus stderr where the caller asked for it
};

class Cli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tsyn_cli_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs `tsyn_cli ARGS` in the scratch directory; `stderr_to` is the
  /// shell redirection for its stderr.
  Outcome run(const std::string& args,
              const std::string& stderr_to = "2>/dev/null") const {
    const std::string cmd = "cd '" + dir_.string() + "' && '" TSYN_CLI_PATH
                            "' " + args + " " + stderr_to;
    Outcome r;
    FILE* p = ::popen(cmd.c_str(), "r");
    if (!p) return r;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) r.out.append(buf, n);
    const int status = ::pclose(p);
    r.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
  }
  int code(const std::string& args) const { return run(args).code; }

  fs::path dir_;
};

TEST_F(Cli, ExitCodes) {
  EXPECT_EQ(code("list"), 0);
  EXPECT_EQ(code("analyze bench:diffeq"), 0);
  EXPECT_EQ(code("analyze missing.cdfg"), 1);

  EXPECT_EQ(code(""), 2);
  EXPECT_EQ(code("bogus bench:diffeq"), 2);
  EXPECT_EQ(code("sweep m.json"), 2);
  EXPECT_EQ(code("analyze"), 2);
  EXPECT_EQ(code("analyze bench:nope"), 2);
  EXPECT_EQ(code("analyze bench:diffeq --bogus"), 2);
  EXPECT_EQ(code("analyze bench:diffeq stray"), 2);
  EXPECT_EQ(code("list extra"), 2);
  EXPECT_EQ(code("list --log-level info"), 2);
  EXPECT_EQ(code("serve"), 2);
  EXPECT_EQ(code("atpg bench:diffeq --serve 0"), 2);
  EXPECT_EQ(code("analyze bench:diffeq --timeline t.json"), 2);
  EXPECT_EQ(code("history store"), 2);
  EXPECT_EQ(code("analyze bench:diffeq --history store"), 2);
  EXPECT_EQ(code("analyze bench:diffeq --profile x"), 2);
  EXPECT_EQ(code("analyze bench:diffeq --watchdog 5"), 2);
  EXPECT_EQ(code("analyze bench:diffeq --progress"), 2);
  EXPECT_EQ(code("analyze bench:diffeq --log-level info"), 2);
  EXPECT_EQ(code("analyze bench:diffeq --heartbeat hb.jsonl:0"), 2);
  EXPECT_EQ(code("synth bench:diffeq --loop-avoid=yes"), 2);
  EXPECT_EQ(code("analyze bench:diffeq --trace"), 2);
}

TEST_F(Cli, BadValuesAreUsageErrors) {
  for (const char* v : {"x", "4x", "", "99999999999"})
    EXPECT_EQ(code(std::string("synth bench:diffeq --alu '") + v + "'"), 2)
        << v;
  // Ranges come from the option table.
  EXPECT_EQ(code("synth bench:diffeq --alu 0"), 2);
  EXPECT_EQ(code("synth bench:diffeq --mul 0"), 2);
  EXPECT_EQ(code("synth bench:diffeq --steps -3"), 2);
  EXPECT_EQ(code("atpg bench:diffeq --width 0"), 2);
  // Enum values.
  EXPECT_EQ(code("synth bench:diffeq --scan nope"), 2);
  EXPECT_EQ(code("bist bench:diffeq --arch bogus"), 2);
  EXPECT_EQ(code("atpg bench:diffeq --compact nonsense"), 2);
  EXPECT_EQ(code("atpg bench:diffeq --xfill=2"), 2);
}

TEST_F(Cli, OptionsACommandDoesNotReadAreRejected) {
  EXPECT_EQ(code("synth bench:diffeq --width 8"), 2);
  EXPECT_EQ(code("synth bench:diffeq --compact static"), 2);
  EXPECT_EQ(code("analyze bench:diffeq --arch tfb"), 2);
  EXPECT_EQ(code("analyze bench:diffeq --alu 1"), 2);
  EXPECT_EQ(code("bist bench:diffeq --steps 6"), 2);
  EXPECT_EQ(code("atpg bench:diffeq --out r.json"), 2);
  EXPECT_EQ(code("explain bench:diffeq --html r.html"), 2);
}

TEST_F(Cli, CollidingOutputsAreRejectedBeforeAnythingRuns) {
  EXPECT_EQ(code("analyze bench:diffeq --trace same.json --metrics same.json"),
            2);
  EXPECT_EQ(code("analyze bench:diffeq --heartbeat - --trace -"), 2);
  EXPECT_EQ(code("report bench:fir8 --width 2 --html report.json"), 2);
  EXPECT_EQ(code("atpg bench:diffeq --trace same.out --heartbeat same.out"),
            2);
  EXPECT_FALSE(fs::exists(dir_ / "same.json"));
  EXPECT_FALSE(fs::exists(dir_ / "report.json"));
  EXPECT_FALSE(fs::exists(dir_ / "same.out"));
}

TEST_F(Cli, EqualsFormMatchesSpaceForm) {
  const Outcome spaced = run("synth bench:diffeq --alu 1 --mul 1 --scan mfvs");
  const Outcome joined = run("synth bench:diffeq --alu=1 --mul=1 --scan=mfvs");
  EXPECT_EQ(spaced.code, 0);
  EXPECT_EQ(joined.code, 0);
  EXPECT_FALSE(spaced.out.empty());
  EXPECT_EQ(spaced.out, joined.out);
  // And both differ from the defaults, so the values were applied.
  EXPECT_NE(run("synth bench:diffeq").out, spaced.out);
}

TEST_F(Cli, UsageNamesEveryCommandAndOption) {
  const Outcome r = run("", "2>&1");
  EXPECT_EQ(r.code, 2);
  for (const char* word :
       {"synth", "analyze", "bist", "atpg", "report", "explain", "list",
        "--alu", "--mul", "--steps", "--scan", "--loop-avoid", "--verilog",
        "--arch", "--trace", "--metrics", "--compact", "--xfill", "--width",
        "--out", "--html", "--dot-rtl", "--dot-cdfg", "--fault",
        "--undetected", "--heartbeat"})
    EXPECT_NE(r.out.find(std::string(" ") + word + " "), std::string::npos)
        << word;
  // A usage error prints the same text after the error line.
  const Outcome bad = run("analyze bench:diffeq --bogus", "2>&1");
  EXPECT_EQ(bad.out.rfind("error: unknown option: --bogus", 0), 0u);
  EXPECT_NE(bad.out.find("--undetected"), std::string::npos);
}

TEST_F(Cli, CompactAcceptsOffAndStaticOnly) {
  const Outcome r = run("atpg bench:diffeq --compact dynamic", "2>&1");
  EXPECT_EQ(r.code, 2);
  EXPECT_EQ(r.out.rfind("error: --compact expects off|static", 0), 0u)
      << r.out;
  EXPECT_NE(r.out.find("usage: tsyn_cli"), std::string::npos);
  const Outcome off = run("atpg bench:diffeq --compact off");
  EXPECT_EQ(off.code, 0);
  EXPECT_NE(off.out.find("compaction: mode off,"), std::string::npos);
}

TEST_F(Cli, StdoutOutputsStayPure) {
  const Outcome json = run("report bench:fir8 --width 2 --out -");
  ASSERT_EQ(json.code, 0);
  const tsyn::util::Json doc = tsyn::util::Json::parse(json.out);
  EXPECT_EQ(doc.number_or("schema", 0), 1.0);
  EXPECT_EQ(doc.find("design")->find("behavior")->str, "bench:fir8");
  EXPECT_FALSE(fs::exists(dir_ / "report.json"));

  const Outcome verilog = run("synth bench:diffeq --verilog -");
  ASSERT_EQ(verilog.code, 0);
  EXPECT_EQ(verilog.out.rfind("// Generated by tsyn", 0), 0u);
  EXPECT_EQ(verilog.out.find("behavior  :"), std::string::npos);
}

TEST_F(Cli, SaturatedLoopCountIsALowerBound) {
  // 128 ops with 8 states at seed 3 has more than 10,000 elementary CDFG
  // loops, so the enumeration stops at its cap: the count is a lower
  // bound and must read as one.
  tsyn::cdfg::GeneratorParams params;
  params.num_ops = 128;
  params.num_states = 8;
  params.seed = 3;
  std::ofstream(dir_ / "saturated.cdfg")
      << tsyn::cdfg::serialize_cdfg(tsyn::cdfg::random_cdfg(params));
  const Outcome r = run("analyze saturated.cdfg");
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("CDFG loops: >=10000\n"), std::string::npos) << r.out;
  // An unsaturated count prints bare.
  const Outcome list = run("list");
  EXPECT_NE(list.out.find("bench:diffeq"), std::string::npos);
  EXPECT_EQ(list.out.find(">="), std::string::npos) << list.out;
}

TEST_F(Cli, ReportIsByteIdenticalRunToRun) {
  // The report embeds the metrics registry, so one timing-dependent value
  // in it (a thread-balance gauge, a wall time) makes two runs differ.
  ASSERT_EQ(code("report bench:diffeq --out a.json"), 0);
  ASSERT_EQ(code("report bench:diffeq --out b.json"), 0);
  auto slurp = [this](const char* name) {
    std::ifstream in(dir_ / name, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string a = slurp("a.json");
  ASSERT_FALSE(a.empty());
  EXPECT_NE(tsyn::util::Json::parse(a).find("metrics"), nullptr);
  EXPECT_EQ(a, slurp("b.json"));
}

}  // namespace
