# Runs BINARY with ARGS (one space-separated string) and passes when it
# exits 0 and the SHA-256 of its stdout is DIGEST: a pin on every byte a
# driver prints. The pins live in tests/driver_digests.txt.
#
#   cmake -DBINARY=path -DARGS="--effort 0.2" -DDIGEST=hex -P expect_digest.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BINARY}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 300)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BINARY} ${ARGS}: exit '${code}', expected 0\n${err}")
endif()
string(SHA256 digest "${out}")
if(NOT digest STREQUAL DIGEST)
  message(FATAL_ERROR "${BINARY} ${ARGS}: stdout SHA-256 ${digest}, pinned "
                      "${DIGEST}. stdout:\n${out}")
endif()
