// The command-line tools (tools/wspc.cpp, tools/replay.cpp) run as built
// binaries: `wspc run --record` leaves a resumable trace behind on a crash,
// `replay --resume` is the one resume command, and both tools parse their
// flags strictly.  Each case runs in a fresh, empty directory.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace wsp {
namespace {

namespace fs = std::filesystem;

const std::string kCrashStorm = WSP_EXAMPLES_DIR "/crash_storm.wsp";
const std::string kParkedTrace = WSP_TEST_DATA_DIR "/lanes8_parked.wspr";

/// A scratch directory for one test, emptied on entry and removed on exit.
class ScratchDir {
 public:
  ScratchDir()
      : path_(fs::temp_directory_path() /
              ("wsp_tools_cli_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }

  /// Runs `binary args` inside the directory; returns its exit status.
  int run(const char* binary, const std::string& args) const {
    const std::string cmd = "cd '" + path_.string() + "' && '" + binary +
                            "' " + args + " > /dev/null 2>&1";
    const int raw = std::system(cmd.c_str());
    return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  }

  std::size_t files() const {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry : fs::directory_iterator(path_)) {
      ++n;
    }
    return n;
  }

 private:
  fs::path path_;
};

// A crash in a run recorded without --checkpoint-every still leaves a
// trace behind: the inputs and no checkpoints, no end tag.  Plain replay
// refuses it; --resume restarts the run from the beginning.
TEST(ToolsCli, CrashWithoutCheckpointsLeavesATraceThatResumes) {
  const ScratchDir dir;
  EXPECT_EQ(dir.run(WSP_WSPC_BIN, "run '" + kCrashStorm + "' --record t.wspr"),
            3);
  ASSERT_EQ(dir.files(), 1u);
  EXPECT_EQ(dir.run(WSP_REPLAY_BIN, "t.wspr"), 2) << "the trace is torn";
  EXPECT_EQ(dir.run(WSP_REPLAY_BIN, "t.wspr --resume"), 0);
  EXPECT_EQ(dir.run(WSP_REPLAY_BIN, "t.wspr --resume --threads=4"), 0);
}

TEST(ToolsCli, WspcRunRejectsUnknownFlagsAndWritesNothing) {
  const ScratchDir dir;
  for (const char* args : {"--resume-from x.wspr", "--bogus", "--threads 0",
                           "--threads", "--record", "--shards=-1",
                           "--checkpoint-every 1e6"}) {
    EXPECT_EQ(dir.run(WSP_WSPC_BIN, "run '" + kCrashStorm + "' " + args), 2)
        << args;
  }
  EXPECT_EQ(dir.run(WSP_WSPC_BIN, "run '" + kCrashStorm + "' --help"), 0);
  EXPECT_EQ(dir.files(), 0u);
}

TEST(ToolsCli, PlainReplayRefusesATornTraceResumeRecoversIt) {
  const ScratchDir dir;
  EXPECT_EQ(dir.run(WSP_REPLAY_BIN, "'" + kParkedTrace + "'"), 2);
  EXPECT_EQ(dir.run(WSP_REPLAY_BIN, "'" + kParkedTrace + "' --resume"), 0);
}

TEST(ToolsCli, ReplayRejectsUnknownFlagsAndBadThreads) {
  const ScratchDir dir;
  const std::string trace = "'" + kParkedTrace + "' ";
  for (const char* args : {"--bogus", "--threads 0", "--threads=-1",
                           "--threads", "--resume=1", "--dump --resume",
                           "--resume --dump"}) {
    EXPECT_EQ(dir.run(WSP_REPLAY_BIN, trace + args), 2) << args;
  }
  EXPECT_EQ(dir.run(WSP_REPLAY_BIN, "--resume"), 2) << "no trace";
  EXPECT_EQ(dir.run(WSP_REPLAY_BIN, "--help"), 0);
  EXPECT_EQ(dir.files(), 0u);
}

}  // namespace
}  // namespace wsp
