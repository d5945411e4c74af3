/**
 * @file
 * Per-op kernel profiler tests: disabled-by-default dispatch, stride
 * sampling, kernel attribution whose self times sum to the recorded
 * phase totals, folded/flamegraph export, the report's profile section
 * round trip, and bit-identity between the bare and dispatching replay
 * loops.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "autodiff/program.hpp"
#include "autodiff/tape.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "tensor/simd.hpp"
#include "util/json.hpp"

namespace ad = smoothe::ad;
namespace obs = smoothe::obs;
namespace util = smoothe::util;

namespace {

/** Small fixed program: loss = sumAll((a * b) * -2 + 1). */
struct SmallProgram
{
    ad::Param a;
    ad::Param b;
    ad::Program program;

    SmallProgram() : a(initTensor(3)), b(initTensor(7)), program(make())
    {}

    static ad::Tensor
    initTensor(unsigned salt)
    {
        ad::Tensor t(4, 16);
        for (std::size_t i = 0; i < t.size(); ++i)
            t.data()[i] =
                0.01f * static_cast<float>((i * salt) % 29) - 0.1f;
        return t;
    }

    ad::Program
    make()
    {
        ad::Tape tape;
        const ad::VarId mul = tape.mul(tape.leaf(&a), tape.leaf(&b));
        const ad::VarId loss = tape.sumAll(
            tape.addScalar(tape.scale(mul, -2.0f), 1.0f));
        return ad::Program(std::move(tape), loss);
    }
};

/** Every test starts and ends with a disabled, empty profiler (the
 *  Profiler is process-wide state). The SIMD level is pinned to scalar
 *  so kernel-slot names stay unsuffixed ("forward.mul", never
 *  "forward.mul@avx2") regardless of the host CPU. */
class ProfilerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        savedLevel_ = smoothe::tensor::simd::activeLevel();
        smoothe::tensor::simd::setLevel(
            smoothe::tensor::simd::Level::Scalar);
        obs::Profiler::instance().disable();
        obs::Profiler::instance().reset();
    }
    void
    TearDown() override
    {
        smoothe::tensor::simd::setLevel(savedLevel_);
        obs::Profiler::instance().disable();
        obs::Profiler::instance().reset();
    }

  private:
    smoothe::tensor::simd::Level savedLevel_ =
        smoothe::tensor::simd::Level::Scalar;
};

} // namespace

TEST_F(ProfilerTest, DisabledByDefaultRecordsNothing)
{
    EXPECT_FALSE(obs::profilerEnabled());
    SmallProgram fixture;
    for (int i = 0; i < 3; ++i) {
        fixture.a.zeroGrad();
        fixture.b.zeroGrad();
        fixture.program.forward();
        fixture.program.backward();
    }
    obs::Profiler& prof = obs::Profiler::instance();
    EXPECT_FALSE(prof.hasData());
    EXPECT_TRUE(prof.snapshot().empty());
    EXPECT_EQ(prof.replays(obs::Profiler::Phase::Forward), 0u);
}

TEST_F(ProfilerTest, EnabledAttributionSumsToPhaseTotals)
{
    obs::Profiler& prof = obs::Profiler::instance();
    prof.enable();
    SmallProgram fixture;
    const int replays = 4;
    for (int i = 0; i < replays; ++i) {
        fixture.a.zeroGrad();
        fixture.b.zeroGrad();
        fixture.program.forward();
        fixture.program.backward();
    }
    prof.disable();

    EXPECT_TRUE(prof.hasData());
    EXPECT_EQ(prof.replays(obs::Profiler::Phase::Forward),
              static_cast<std::uint64_t>(replays));
    EXPECT_EQ(prof.sampledReplays(obs::Profiler::Phase::Forward),
              static_cast<std::uint64_t>(replays));
    EXPECT_EQ(prof.sampledReplays(obs::Profiler::Phase::Backward),
              static_cast<std::uint64_t>(replays));

    const std::vector<obs::KernelStats> kernels = prof.snapshot();
    ASSERT_FALSE(kernels.empty());
    double selfSum = 0.0;
    bool sawMul = false;
    for (const obs::KernelStats& k : kernels) {
        EXPECT_GT(k.calls, 0u);
        selfSum += k.selfSeconds;
        sawMul = sawMul || k.name == "forward.mul";
        if (k.name == "forward.mul") {
            EXPECT_EQ(k.calls, static_cast<std::uint64_t>(replays));
            EXPECT_GT(k.flops, 0u);
            EXPECT_GT(k.bytes, 0u);
            EXPECT_GT(k.intensity(), 0.0);
        }
    }
    EXPECT_TRUE(sawMul);

    // Boundary-to-boundary sampling makes kernel self times sum to the
    // phase totals by construction (modulo integer-nanosecond
    // truncation per op); the acceptance bar is >= 90%.
    const double phaseTotal =
        prof.phaseSeconds(obs::Profiler::Phase::Forward) +
        prof.phaseSeconds(obs::Profiler::Phase::Backward);
    ASSERT_GT(phaseTotal, 0.0);
    EXPECT_GE(selfSum, 0.9 * phaseTotal);
    EXPECT_LE(selfSum, 1.000001 * phaseTotal);
}

TEST_F(ProfilerTest, StrideSamplesEveryNthReplay)
{
    obs::Profiler& prof = obs::Profiler::instance();
    prof.enable(3);
    EXPECT_EQ(prof.stride(), 3u);
    SmallProgram fixture;
    for (int i = 0; i < 9; ++i)
        fixture.program.forward();
    prof.disable();
    EXPECT_EQ(prof.replays(obs::Profiler::Phase::Forward), 9u);
    EXPECT_EQ(prof.sampledReplays(obs::Profiler::Phase::Forward), 3u);
    for (const obs::KernelStats& k : prof.snapshot()) {
        if (k.name == "forward.mul") {
            EXPECT_EQ(k.calls, 3u);
        }
    }
}

TEST_F(ProfilerTest, FoldedExportIsOneLinePerKernel)
{
    obs::Profiler& prof = obs::Profiler::instance();
    prof.enable();
    SmallProgram fixture;
    fixture.program.forward();
    fixture.program.backward();
    prof.disable();

    const std::string folded = prof.toFolded();
    ASSERT_FALSE(folded.empty());
    std::size_t lines = 0;
    std::size_t start = 0;
    while (start < folded.size()) {
        std::size_t end = folded.find('\n', start);
        ASSERT_NE(end, std::string::npos); // newline-terminated
        const std::string line = folded.substr(start, end - start);
        EXPECT_EQ(line.rfind("smoothe;", 0), 0u) << line;
        const std::size_t space = line.find(' ');
        ASSERT_NE(space, std::string::npos) << line;
        // The sample value is a non-negative integer (microseconds).
        for (std::size_t i = space + 1; i < line.size(); ++i)
            EXPECT_TRUE(line[i] >= '0' && line[i] <= '9') << line;
        ++lines;
        start = end + 1;
    }
    EXPECT_EQ(lines, prof.snapshot().size());
}

TEST_F(ProfilerTest, ReportProfileSectionRoundTrips)
{
    obs::Profiler& prof = obs::Profiler::instance();
    prof.enable();
    SmallProgram fixture;
    fixture.program.forward();
    fixture.program.backward();
    prof.disable();

    obs::Report report("test_profiler");
    report.measurement("dummy").add(1.0);

    // v1-shaped document (no profile section) must stay valid.
    std::string error;
    EXPECT_TRUE(obs::validateReportJson(report.toJson(), &error))
        << error;

    report.setProfile(prof.toJson());
    util::Json doc = report.toJson();
    EXPECT_TRUE(obs::validateReportJson(doc, &error)) << error;
    EXPECT_EQ(obs::reportSchemaVersion(doc), obs::kReportSchemaVersion);
    const util::Json* profile = doc.find("profile");
    ASSERT_NE(profile, nullptr);
    EXPECT_EQ(profile->find("perf"), nullptr);
    const util::Json* kernels = profile->find("kernels");
    ASSERT_NE(kernels, nullptr);
    EXPECT_GT(kernels->asObject().size(), 0u);
    for (const auto& [name, entry] : kernels->asObject()) {
        EXPECT_NE(entry.find("calls"), nullptr) << name;
        EXPECT_EQ(entry.find("cycles"), nullptr) << name;
    }

    // Malformed profile sections are rejected, not silently accepted.
    util::Json bad = report.toJson();
    bad.set("profile", util::Json("not an object"));
    EXPECT_FALSE(obs::validateReportJson(bad, &error));

    // A null profile removes the section again.
    report.setProfile(util::Json());
    EXPECT_EQ(report.toJson().find("profile"), nullptr);
}

TEST_F(ProfilerTest, ProfiledReplayIsBitIdenticalToBare)
{
    SmallProgram profiled;
    SmallProgram bare;

    obs::Profiler::instance().enable();
    profiled.a.zeroGrad();
    profiled.b.zeroGrad();
    profiled.program.forward();
    profiled.program.backward();
    obs::Profiler::instance().disable();

    bare.a.zeroGrad();
    bare.b.zeroGrad();
    bare.program.forwardBare();
    bare.program.backwardBare();

    const ad::Tensor& lossProfiled =
        profiled.program.value(profiled.program.root());
    const ad::Tensor& lossBare = bare.program.value(bare.program.root());
    EXPECT_EQ(std::memcmp(lossProfiled.data(), lossBare.data(),
                          sizeof(float)),
              0);
    ASSERT_EQ(profiled.a.grad.size(), bare.a.grad.size());
    EXPECT_EQ(std::memcmp(profiled.a.grad.data(), bare.a.grad.data(),
                          bare.a.grad.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(profiled.b.grad.data(), bare.b.grad.data(),
                          bare.b.grad.size() * sizeof(float)),
              0);
}
