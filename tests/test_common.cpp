/**
 * @file
 * Unit tests for common utilities: arithmetic helpers, factor
 * enumeration, string formatting and the table printer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/util.hpp"

using namespace nnbaton;

TEST(CeilDiv, ExactAndInexact)
{
    EXPECT_EQ(ceilDiv(10, 5), 2);
    EXPECT_EQ(ceilDiv(11, 5), 3);
    EXPECT_EQ(ceilDiv(1, 5), 1);
    EXPECT_EQ(ceilDiv(0, 5), 0);
    EXPECT_EQ(ceilDiv(5, 1), 5);
}

TEST(RoundUp, MultiplesAndRemainders)
{
    EXPECT_EQ(roundUp(12, 8), 16);
    EXPECT_EQ(roundUp(16, 8), 16);
    EXPECT_EQ(roundUp(1, 8), 8);
}

TEST(MulDivFloor, MatchesTheProductFormAndSurvivesHugeOperands)
{
    for (int64_t a : {0LL, 1LL, 7LL, 8LL, 1000003LL, 123456789012LL}) {
        for (int64_t d : {1, 3, 8, 16, 1000}) {
            EXPECT_EQ(mulDivFloor(a, 8, d), a * 8 / d) << a << " " << d;
            EXPECT_EQ(mulDivFloor(a, 24, d), a * 24 / d) << a << " " << d;
        }
    }
    // 100000 x 100000 x 4096 x 4096 x 9 MACs: macs * 8 overflows
    // int64, the quotient does not.
    const int64_t macs = 1509949440000000000;
    EXPECT_EQ(mulDivFloor(macs, 8, 16), macs / 2);
    EXPECT_EQ(mulDivFloor(macs + 1, 8, 16), macs / 2);
}

TEST(IsPow2, Values)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_TRUE(isPow2(1024));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_FALSE(isPow2(-4));
    EXPECT_FALSE(isPow2(6));
}

TEST(Divisors, SmallNumbers)
{
    EXPECT_EQ(divisors(1), std::vector<int>({1}));
    EXPECT_EQ(divisors(12), std::vector<int>({1, 2, 3, 4, 6, 12}));
    EXPECT_EQ(divisors(16), std::vector<int>({1, 2, 4, 8, 16}));
}

TEST(FactorPairs, ProductInvariant)
{
    for (int n : {1, 2, 8, 12, 36, 64}) {
        for (auto [a, b] : factorPairs(n)) {
            EXPECT_EQ(a * b, n) << "n=" << n;
            EXPECT_GE(a, 1);
            EXPECT_GE(b, 1);
        }
    }
}

TEST(FactorPairs, CountMatchesDivisors)
{
    EXPECT_EQ(factorPairs(36).size(), divisors(36).size());
}

TEST(SizeLiterals, KbMb)
{
    EXPECT_EQ(1_KB, 1024);
    EXPECT_EQ(64_KB, 65536);
    EXPECT_EQ(1_MB, 1048576);
}

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strprintf("%.2f", 1.2345), "1.23");
    EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(TextTable, AlignedOutputContainsCells)
{
    TextTable t({"A", "LongHeader"});
    t.newRow().add("x").add(static_cast<int64_t>(7));
    t.newRow().add("yy").add(3.14159, 2);
    std::ostringstream ss;
    t.print(ss);
    const std::string out = ss.str();
    EXPECT_NE(out.find("LongHeader"), std::string::npos);
    EXPECT_NE(out.find("3.14"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, CsvOutput)
{
    TextTable t({"a", "b"});
    t.newRow().add("1").add("2");
    std::ostringstream ss;
    t.printCsv(ss);
    EXPECT_EQ(ss.str(), "a,b\n1,2\n");
}

TEST(TextTable, AddWithoutNewRowStartsRow)
{
    TextTable t({"a"});
    t.add("cell");
    EXPECT_EQ(t.rowCount(), 1u);
}
