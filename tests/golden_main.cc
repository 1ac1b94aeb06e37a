/**
 * @file
 * Custom gtest main for the golden test binary: running with
 * `--dump-goldens` regenerates tests/goldens.inc instead of testing
 * (see golden_support.hh).
 */

#include <gtest/gtest.h>

#include "golden_support.hh"

int
main(int argc, char **argv)
{
    if (atomsim::golden::maybeDumpGoldens(argc, argv))
        return 0;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
