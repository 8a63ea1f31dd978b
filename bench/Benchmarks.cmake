# Benchmark binaries. Included from the top-level CMakeLists (not via
# add_subdirectory) so that build/bench/ contains exactly the executables,
# which the evaluation loop `for b in build/bench/*; do $b; done` runs.

function(la_add_bench name)
  add_executable(${name} bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE la_corpus la_baselines)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

la_add_bench(fig8a_learning_vs_enumeration)
la_add_bench(fig8b_learning_vs_template)
la_add_bench(fig8c_learning_vs_pdr)
la_add_bench(fig8d_learning_vs_interpolation)
la_add_bench(table1_solver_comparison)
la_add_bench(table2_program_characteristics)
la_add_bench(table3_svcomp_categories)
la_add_bench(ablation_dt)
la_add_bench(ablation_learner)

add_executable(micro_components bench/micro_components.cpp)
target_link_libraries(micro_components PRIVATE la_analysis la_ml la_smt la_smtlib2 benchmark::benchmark)
set_target_properties(micro_components PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
