/**
 * @file
 * Malformed-input fuzzing (seeded, deterministic): the JSON parser,
 * the strict CLI numeric parsers, the model-file loader and the sweep
 * checkpoint loader must reject arbitrary garbage with a structured
 * error — never crash, hang or silently accept it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <random>
#include <string>

#include "common/json.hpp"
#include "common/parse.hpp"
#include "common/status.hpp"
#include "dse/checkpoint.hpp"
#include "nn/model.hpp"
#include "nn/parser.hpp"

using namespace nnbaton;

namespace {

std::string
tmpFile(const char *name, const std::string &contents)
{
    const std::string path = ::testing::TempDir() + name;
    FILE *f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    if (f) {
        std::fwrite(contents.data(), 1, contents.size(), f);
        std::fclose(f);
    }
    return path;
}

} // namespace

TEST(JsonFuzz, MalformedDocumentsAreRejected)
{
    const char *cases[] = {
        "",
        "   ",
        "{",
        "}",
        "[",
        "]",
        "{\"a\"",
        "{\"a\":}",
        "{\"a\":1,}",
        "{,}",
        "[1,]",
        "[1 2]",
        "{\"a\":1}{",
        "\"unterminated",
        "\"bad escape \\q\"",
        "\"bad unicode \\u12g4\"",
        "tru",
        "nul",
        "1e",
        "1e+",
        "-",
        "--1",
        "0x10",
        "NaN",
        "Infinity",
        "{'single': 1}",
        "{\"dup\": 1 \"dup\": 2}",
    };
    for (const char *text : cases) {
        const JsonParseResult r = parseJson(text);
        EXPECT_FALSE(r.ok()) << "accepted: " << text;
        EXPECT_FALSE(r.error.empty()) << text;
    }
}

TEST(JsonFuzz, TruncationsOfAValidDocumentAreRejected)
{
    const std::string doc = "{\"a\": [1, 2.5, true, null], "
                            "\"b\": {\"c\": \"str\\n\", \"d\": -3e2}}";
    ASSERT_TRUE(parseJson(doc).ok());
    // Every strict prefix is malformed (none happens to be a shorter
    // valid document for this text).
    for (size_t n = 0; n + 1 < doc.size(); ++n) {
        const JsonParseResult r = parseJson(doc.substr(0, n));
        EXPECT_FALSE(r.ok()) << "prefix length " << n;
    }
}

TEST(JsonFuzz, DeepNestingHitsTheDepthGuardNotTheStack)
{
    const std::string deep(100000, '[');
    const JsonParseResult r = parseJson(deep);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("deep"), std::string::npos) << r.error;

    // At-the-limit nesting still parses.
    std::string ok;
    for (int i = 0; i < 100; ++i)
        ok += '[';
    for (int i = 0; i < 100; ++i)
        ok += ']';
    EXPECT_TRUE(parseJson(ok).ok());
}

TEST(JsonFuzz, RandomByteNoiseNeverCrashes)
{
    std::mt19937 gen(0xf00d);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<int> len(0, 64);
    for (int iter = 0; iter < 2000; ++iter) {
        std::string text;
        const int n = len(gen);
        for (int i = 0; i < n; ++i)
            text.push_back(static_cast<char>(byte(gen)));
        // Must terminate and either parse or report an offset inside
        // (or just past) the input.
        const JsonParseResult r = parseJson(text);
        if (!r.ok()) {
            EXPECT_LE(r.errorOffset, text.size());
        }
    }
}

TEST(ParseFuzz, NumericFlagGarbageIsRejected)
{
    const char *bad[] = {
        "",     " ",    "x",        "12x",  "x12",  "1 2",  "-1",
        "0",    "+",    "1e",       "0x10", "␀",    "¹²",   " 1",
        "1 ",   "--2",  "99999999999999999999999999", "12.5",
    };
    for (const char *text : bad) {
        EXPECT_FALSE(parsePositiveInt64("--n", text).ok()) << text;
        EXPECT_FALSE(parsePositiveInt("--n", text).ok()) << text;
    }
    // Int-range boundary: fits in 64 bits but not in int.
    EXPECT_TRUE(parsePositiveInt64("--n", "3000000000").ok());
    EXPECT_FALSE(parsePositiveInt("--n", "3000000000").ok());
    EXPECT_EQ(parsePositiveInt("--n", "3000000000").status().code(),
              StatusCode::InvalidArgument);

    const char *bad_double[] = {"", "x", "1x", "-1.5", "0",
                                "nan", "inf", "-inf", "1e999"};
    for (const char *text : bad_double)
        EXPECT_FALSE(parsePositiveDouble("--d", text).ok()) << text;
    EXPECT_DOUBLE_EQ(parsePositiveDouble("--d", "2.5").value(), 2.5);
    // Error messages name the flag so the CLI user knows what to fix.
    EXPECT_NE(parsePositiveInt("--threads", "x")
                  .status()
                  .message()
                  .find("--threads"),
              std::string::npos);
}

TEST(ModelFileFuzz, GarbageModelFilesAreStructuredErrors)
{
    EXPECT_EQ(loadModelFile(::testing::TempDir() + "missing_model.nn")
                  .status()
                  .code(),
              StatusCode::NotFound);

    const char *bad[] = {
        "",
        "conv a 1 1 1 1 1 1 1\n",          // layer before model line
        "model\n",                          // missing fields
        "model m 0\n",                      // non-positive resolution
        "model m 224\n",                    // no layers
        "model m 224\nmodel m 224\n",       // duplicate model line
        "model m 224\nconv a 1 2\n",        // wrong arity
        "model m 224\nconv a 1 1 1 1 1 1 x\n", // bad integer
        "model m 224\nwarp a 1 1\n",        // unknown layer kind
        "model m 224\nfc a -4 4\n",         // negative feature count
    };
    int idx = 0;
    for (const char *text : bad) {
        const std::string path = tmpFile(
            ("fuzz_model_" + std::to_string(idx++) + ".nn").c_str(),
            text);
        const StatusOr<Model> r = loadModelFile(path);
        EXPECT_FALSE(r.ok()) << text;
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument)
            << text;
        std::remove(path.c_str());
    }
}

TEST(ModelFuzz, HugeBatchFactorsAreInvalidArgument)
{
    // --batch 1000000000 on bert_base: the lowered attention layers
    // already carry batch 12 (heads), so the product overflows int.
    // It must be reported as an overflow, never wrap into a bogus
    // "non-positive batch" or a silently wrong positive one.
    for (const int factor : {1000000000, 178956971,
                             std::numeric_limits<int>::max()}) {
        Model bert = makeBertBase(128);
        try {
            bert.scaleBatch(factor);
            ADD_FAILURE() << "factor " << factor << " was accepted";
        } catch (const StatusError &e) {
            EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
            EXPECT_NE(e.status().message().find("overflows"),
                      std::string::npos)
                << e.status().message();
        }
        // A rejected factor leaves every layer unscaled.
        EXPECT_EQ(bert.layer("enc1_attn_qkv").batch, 1);
        EXPECT_EQ(bert.layer("enc1_attn_scores").batch, 12);
    }

    // The largest factor that still fits is accepted exactly.
    Model conv("one", 8);
    conv.addLayer(makeConv("c", 8, 8, 8, 8, 3, 3, 1));
    conv.scaleBatch(std::numeric_limits<int>::max());
    EXPECT_EQ(conv.layer("c").batch, std::numeric_limits<int>::max());
    try {
        conv.scaleBatch(2);
        ADD_FAILURE() << "batch INT_MAX x 2 was accepted";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
    }
}

TEST(ModelFuzz, HugeShapesAreInvalidArgument)
{
    // Each layer's input edge or one of its int64 volumes overflows.
    // It must be rejected up front as INVALID_ARGUMENT naming the
    // overflow, never reach the mapper (where the wrapped extents
    // crashed post with SIGFPE) or wrap silently.
    constexpr int kBig = 1 << 30;
    const auto expectOverflow = [](const std::function<void()> &make,
                                   const char *what) {
        try {
            make();
            ADD_FAILURE() << what << " was accepted";
        } catch (const StatusError &e) {
            EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument)
                << what;
            EXPECT_NE(e.status().message().find("overflows"),
                      std::string::npos)
                << what << ": " << e.status().message();
        }
    };
    expectOverflow(
        [&] { makeConv("c1", kBig, kBig, kBig, kBig, 3, 3, 2); },
        "input edge (ho 2^30, stride 2)");
    expectOverflow(
        [] { makeConv("c2", 1 << 16, 1 << 16, 1 << 16, 1 << 16, 3, 3, 1); },
        "MACs 65536^4 x 9");
    expectOverflow(
        [] { makeConv("c3", 2, 2, 1, 1024, 1, 1, 1 << 29); },
        "input volume (stride 2^29)");
    expectOverflow(
        [] { makeConv("c4", 1, 1, 1 << 16, 1 << 16, 1 << 16, 1 << 16, 1); },
        "weights and MACs 2^64");
    expectOverflow(
        [] { makeDepthwiseConv("d1", kBig, kBig, kBig, 3, 1); },
        "depthwise MACs 2^90 x 9");
    expectOverflow(
        [] { makeGemm("g1", kBig, kBig, 1, 1, kBig); },
        "vector ops 2^30 x 2^30 x 2^30");

    // The same shapes in a model file are a structured parse error.
    const std::string path = tmpFile(
        "fuzz_huge.nn",
        "model huge 224\n"
        "conv c1 1073741824 1073741824 1073741824 1073741824 3 3 2\n");
    const StatusOr<Model> r = loadModelFile(path);
    EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(r.status().message().find("overflows"), std::string::npos)
        << r.status().message();
    std::remove(path.c_str());

    // A batch factor that keeps the batch an int but pushes a volume
    // past int64 is rejected too, leaving the model unscaled.
    Model wide("wide", 8);
    wide.addLayer(makeConv("w", 1 << 16, 1 << 16, 1 << 12, 1 << 12, 1, 1, 1));
    expectOverflow([&] { wide.scaleBatch(1 << 20); }, "batch x MACs");
    EXPECT_EQ(wide.layer("w").batch, 1);

    // The largest shapes that fit are still accepted.
    const ConvLayer edge = makeConv("e", kBig, 1, 1, 1, 1, 1, 2);
    EXPECT_EQ(edge.hi(), std::numeric_limits<int>::max());
}

TEST(CheckpointFuzz, GarbageCheckpointsAreDataLoss)
{
    const char *bad[] = {
        "",
        "not json at all",
        "[]",
        "42",
        "{}",
        "{\"format\": \"wrong\"}",
        "{\"format\": \"nn-baton-sweep-checkpoint\"}",
        "{\"format\": \"nn-baton-sweep-checkpoint\", \"version\": 99,"
        " \"fingerprint\": \"f\", \"complete\": true,"
        " \"entries\": []}",
        "{\"format\": \"nn-baton-sweep-checkpoint\", \"version\": 1,"
        " \"fingerprint\": \"f\", \"complete\": true,"
        " \"entries\": 7}",
        "{\"format\": \"nn-baton-sweep-checkpoint\", \"version\": 1,"
        " \"fingerprint\": \"f\", \"complete\": true,"
        " \"entries\": [{\"kind\": \"valid\"}]}",
    };
    int idx = 0;
    for (const char *text : bad) {
        const std::string path = tmpFile(
            ("fuzz_ckpt_" + std::to_string(idx++) + ".json").c_str(),
            text);
        const auto r = loadSweepCheckpoint(path);
        EXPECT_FALSE(r.ok()) << text;
        EXPECT_EQ(r.status().code(), StatusCode::DataLoss) << text;
        std::remove(path.c_str());
    }
}
