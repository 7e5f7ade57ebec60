# End-to-end CLI parity test for the columnar format: `dquag convert` turns
# the tiny CSV fixture into a .dqc file, and every consumer (validate and
# serve-sim, at the default chunk size and at --chunk-rows 2) must produce
# EXACTLY the same output and exit code on the .dqc as on the source CSV.
# Invoked by ctest as:
#   cmake -DDQUAG_CLI=<binary> -DFIXTURE=<csv> -DWORK_DIR=<dir>
#         -P cli_convert_test.cmake

file(MAKE_DIRECTORY ${WORK_DIR})
set(schema ${WORK_DIR}/schema.json)
set(model ${WORK_DIR}/model.ckpt)
set(dqc ${WORK_DIR}/fixture.dqc)

# 1. Derive a schema template from the fixture.
execute_process(
  COMMAND ${DQUAG_CLI} schema-template --data ${FIXTURE}
  OUTPUT_FILE ${schema}
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "schema-template exited with ${code}\nstderr: ${err}")
endif()

# 2. Convert the fixture to columnar (small blocks so several are written).
execute_process(
  COMMAND ${DQUAG_CLI} convert ${FIXTURE} ${dqc} --schema ${schema}
          --block-rows 3
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "convert exited with ${code}\nstderr: ${err}\n${out}")
endif()
if(NOT out MATCHES "converted [0-9]+ rows")
  message(FATAL_ERROR "unexpected convert output:\n${out}")
endif()

# 3. Converting is idempotent: a second run produces byte-identical output.
set(dqc2 ${WORK_DIR}/fixture2.dqc)
execute_process(
  COMMAND ${DQUAG_CLI} convert ${FIXTURE} ${dqc2} --schema ${schema}
          --block-rows 3
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "second convert exited with ${code}\nstderr: ${err}")
endif()
file(SHA256 ${dqc} hash1)
file(SHA256 ${dqc2} hash2)
if(NOT hash1 STREQUAL hash2)
  message(FATAL_ERROR "convert is not deterministic: ${hash1} vs ${hash2}")
endif()

# 4. Train a tiny checkpoint on the fixture (fast settings).
execute_process(
  COMMAND ${DQUAG_CLI} train --clean ${FIXTURE} --schema ${schema}
          --out ${model} --epochs 2 --seed 7
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "train exited with ${code}\nstderr: ${err}\n${out}")
endif()

# 5. validate: CSV vs .dqc vs .dqc at --chunk-rows 2 must be byte-identical
# on stdout with equal exit codes.
execute_process(
  COMMAND ${DQUAG_CLI} validate --model ${model} --data ${FIXTURE} --verbose
  OUTPUT_VARIABLE csv_out
  ERROR_VARIABLE err
  RESULT_VARIABLE csv_code)
if(csv_code GREATER 2)
  message(FATAL_ERROR "validate (csv) exited with ${csv_code}\nstderr: ${err}")
endif()
execute_process(
  COMMAND ${DQUAG_CLI} validate --model ${model} --data ${dqc} --verbose
  OUTPUT_VARIABLE dqc_out
  ERROR_VARIABLE err
  RESULT_VARIABLE dqc_code)
if(dqc_code GREATER 2)
  message(FATAL_ERROR "validate (dqc) exited with ${dqc_code}\nstderr: ${err}")
endif()
execute_process(
  COMMAND ${DQUAG_CLI} validate --model ${model} --data ${dqc} --verbose
          --chunk-rows 2
  OUTPUT_VARIABLE chunked_out
  ERROR_VARIABLE err
  RESULT_VARIABLE chunked_code)
if(chunked_code GREATER 2)
  message(FATAL_ERROR "validate --chunk-rows 2 (dqc) exited with "
                      "${chunked_code}\nstderr: ${err}")
endif()
if(NOT csv_code EQUAL dqc_code OR NOT csv_code EQUAL chunked_code)
  message(FATAL_ERROR "validate exit codes differ: csv=${csv_code} "
                      "dqc=${dqc_code} dqc-chunk-rows-2=${chunked_code}")
endif()
if(NOT csv_out STREQUAL dqc_out)
  message(FATAL_ERROR "csv vs dqc validate parity violated:\n--- csv ---\n"
                      "${csv_out}\n--- dqc ---\n${dqc_out}")
endif()
if(NOT csv_out STREQUAL chunked_out)
  message(FATAL_ERROR "dqc --chunk-rows 2 validate parity violated:\n"
                      "--- csv ---\n${csv_out}\n--- dqc chunk-rows 2 ---\n"
                      "${chunked_out}")
endif()
if(NOT csv_out MATCHES "instances flagged")
  message(FATAL_ERROR "unexpected validate output:\n${csv_out}")
endif()

# 6. serve-sim over the .dqc at --chunk-rows 2: the deterministic summary
# line must match the default-chunk CSV run (throughput lines are
# timing-dependent and excluded).
function(extract_flagged_line text out_var)
  string(REGEX MATCH "flagged: [^\n]*" line "${text}")
  set(${out_var} "${line}" PARENT_SCOPE)
endfunction()

execute_process(
  COMMAND ${DQUAG_CLI} serve-sim --model ${model} --data ${FIXTURE}
          --threads 2 --rounds 2
  OUTPUT_VARIABLE csv_out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "serve-sim (csv) exited with ${code}\nstderr: ${err}")
endif()
execute_process(
  COMMAND ${DQUAG_CLI} serve-sim --model ${model} --data ${dqc}
          --threads 2 --rounds 2 --chunk-rows 2
  OUTPUT_VARIABLE dqc_out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR
          "serve-sim --chunk-rows 2 (dqc) exited with ${code}\nstderr: ${err}")
endif()
extract_flagged_line("${csv_out}" csv_flagged)
extract_flagged_line("${dqc_out}" dqc_flagged)
if(csv_flagged STREQUAL "")
  message(FATAL_ERROR "no flagged summary in serve-sim output:\n${csv_out}")
endif()
if(NOT csv_flagged STREQUAL dqc_flagged)
  message(FATAL_ERROR "serve-sim dqc parity violated:\n  csv: ${csv_flagged}"
                      "\n  dqc: ${dqc_flagged}")
endif()

# 7. A corrupt .dqc must be rejected with a clean error, not a crash.
set(bad ${WORK_DIR}/corrupt.dqc)
file(WRITE ${bad} "this is not a dqc file, just garbage bytes padded out "
                  "long enough to carry a fake tail...............")
execute_process(
  COMMAND ${DQUAG_CLI} validate --model ${model} --data ${bad}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(code EQUAL 0)
  message(FATAL_ERROR "validate accepted a corrupt .dqc file:\n${out}")
endif()
if(code GREATER 125)
  message(FATAL_ERROR "validate crashed on corrupt .dqc (exit ${code})")
endif()

message(STATUS "cli_convert_parity OK (${csv_flagged})")
