# Project conventions the compiler cannot see, checked by regex over the
# source text. Runs as the `check_conventions` ctest; by hand:
#
#   cmake [-DROOT=<tree>] -P tools/check_conventions.cmake
#
# ROOT defaults to the repository holding this script. Before matching, each line loses its `//` tail, and lines whose
# first non-blank characters are `*` or `/*` (doc comments) are dropped.
# Prints every hit as path:line and fails if there is any.
#
#   no-rand        rand()/srand()/time() in src/: randomness comes from
#                  util::Rng streams so runs reproduce from their seed.
#   std-thread     std::thread outside util/thread_pool and its unit
#                  test (which needs external callers): one fixed pool
#                  keeps chunking, and so results, thread-count invariant.
#   fma-in-kernel  FMA intrinsics, fma()/fmaf(), FP_CONTRACT or fast-math
#                  in src/tensor/: scalar and AVX2 kernels stay bitwise
#                  identical only while every multiply and add rounds.
#   no-assert      bare assert() in src/: it vanishes under NDEBUG, i.e.
#                  from the Release builds that are benchmarked; use
#                  SMOOTHE_CHECK / SMOOTHE_ASSERT (check/contracts.hpp).
#   counter-in-kernel
#                  any #include "obs/..." or obs:: in src/tensor/: the
#                  kernels depend on no telemetry; per-kernel calls,
#                  bytes and time are attributed once, by obs::Profiler
#                  from the compiled replay.
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED ROOT)
    set(ROOT "${CMAKE_CURRENT_LIST_DIR}/..")
endif()
get_filename_component(ROOT "${ROOT}" ABSOLUTE)
if(NOT IS_DIRECTORY "${ROOT}")
    message(FATAL_ERROR "check_conventions: ROOT '${ROOT}' is not a directory")
endif()

set(rules no-rand std-thread fma-in-kernel no-assert counter-in-kernel)

set(no-rand_dirs src)
set(no-rand_regex "(^|[^A-Za-z0-9_.>:])(std::|::)?(s?rand|time)[ \t]*\\(")
set(no-rand_fix "use a util::Rng stream (seeded) or util::Timer")

set(std-thread_dirs src tools bench tests)
set(std-thread_regex "std::thread([^A-Za-z0-9_]|$)")
set(std-thread_skip "util/thread_pool|^tests/test_thread_pool\\.cpp$")
set(std-thread_fix "run work on util::ThreadPool")

set(fma-in-kernel_dirs src/tensor)
set(fma-in-kernel_regex
    "_mm[0-9]*_fn?m(add|sub)|(^|[^A-Za-z0-9_.>])fmaf?[ \t]*\\(|FP_CONTRACT|fast-math")
set(fma-in-kernel_fix "round the multiply and the add separately")

set(no-assert_dirs src)
set(no-assert_regex "(^|[^A-Za-z0-9_])assert[ \t]*\\(")
set(no-assert_fix "use SMOOTHE_CHECK or SMOOTHE_ASSERT")

set(counter-in-kernel_dirs src/tensor)
set(counter-in-kernel_regex "#[ \t]*include[ \t]*\"obs/|(^|[^A-Za-z0-9_])obs::")
set(counter-in-kernel_fix "keep obs out of kernels, obs::Profiler attributes them")

# Source text with comments removed as described above. Semicolons
# become spaces so the text never splits as a CMake list.
function(read_code path out)
    file(READ "${path}" text)
    string(REPLACE ";" " " text "${text}")
    string(REGEX REPLACE "//[^\n]*" "" text "${text}")
    string(REGEX REPLACE "(^|\n)[ \t]*/?\\*[^\n]*" "\\1" text "${text}")
    set(${out} "${text}" PARENT_SCOPE)
endfunction()

set(violations 0)
set(scanned 0)
foreach(rule IN LISTS rules)
    set(globs)
    foreach(dir IN LISTS ${rule}_dirs)
        list(APPEND globs "${ROOT}/${dir}/*.cpp" "${ROOT}/${dir}/*.hpp")
    endforeach()
    file(GLOB_RECURSE files RELATIVE "${ROOT}" ${globs})
    list(FILTER files EXCLUDE REGEX "^tests/fixtures/")
    if(DEFINED ${rule}_skip)
        list(FILTER files EXCLUDE REGEX "${${rule}_skip}")
    endif()
    list(SORT files)
    foreach(file IN LISTS files)
        math(EXPR scanned "${scanned} + 1")
        read_code("${ROOT}/${file}" rest)
        set(line 1)
        while(rest MATCHES "${${rule}_regex}")
            set(hit "${CMAKE_MATCH_0}")
            string(FIND "${rest}" "${hit}" at)
            string(LENGTH "${hit}" len)
            math(EXPR end "${at} + ${len}")
            string(SUBSTRING "${rest}" 0 ${end} before)
            string(SUBSTRING "${rest}" ${end} -1 rest)
            string(REGEX MATCHALL "\n" newlines "${before}")
            list(LENGTH newlines skipped)
            math(EXPR line "${line} + ${skipped}")
            string(REGEX REPLACE "^[^A-Za-z_]+" "" hit "${hit}")
            message("${file}:${line}: [${rule}] '${hit}': ${${rule}_fix}")
            math(EXPR violations "${violations} + 1")
        endwhile()
    endforeach()
endforeach()

if(scanned EQUAL 0)
    message(FATAL_ERROR "check_conventions: no sources under '${ROOT}'")
endif()
if(violations GREATER 0)
    message(FATAL_ERROR "check_conventions: ${violations} violation(s)")
endif()
message(STATUS "check_conventions: ${scanned} file scans clean (${rules})")
